package engine

import (
	"context"
	"time"

	"bedom/internal/graph"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// engineSubstrate adapts the engine's cached substrate accessors to the
// solver.Substrate interface.  Fetches run under the context the solver
// passes, which is the detached one of the domset answer build, so nested
// substrate builds do not inherit one requester's deadline (see wreachFor)
// and record their spans in the query's trace.  The adapter tracks the time
// spent inside fetches, so solve can account the solver's own compute
// without double-counting nested builds.
type engineSubstrate struct {
	e      *Engine
	g      *graph.Graph
	gen    uint64
	nested time.Duration
}

func (s *engineSubstrate) Order(ctx context.Context, r int) (*order.Order, error) {
	start := time.Now()
	o, _, err := s.e.orderFor(ctx, s.g, s.gen, r)
	s.nested += time.Since(start)
	return o, err
}

func (s *engineSubstrate) WReach(ctx context.Context, orderR, r int) (*order.Sweep, error) {
	start := time.Now()
	sw, err := s.e.wreachFor(ctx, s.g, s.gen, orderR, r)
	s.nested += time.Since(start)
	return sw, err
}

// solve runs the solver strategy for radius r into the answer's response.
// ctx is the detached context of the answer build.
func (e *Engine) solve(ctx context.Context, g *graph.Graph, gen uint64, r int, s solver.Solver, resp *Response) error {
	e.stage("solve:" + s.Name())
	sub := &engineSubstrate{e: e, g: g, gen: gen}
	start := time.Now()
	res, err := s.Solve(ctx, g, r, sub)
	if err != nil {
		return err
	}
	// Exclusive build time: nested substrate fetches account themselves via
	// timedBuild, so only the solver's own compute is added here.
	e.cache.addBuildTime("solve", time.Since(start)-sub.nested)
	resp.Solver = s.Name()
	resp.Set, resp.Size = res.Set, len(res.Set)
	resp.LowerBound, resp.Wcol = res.LowerBound, res.Wcol
	return nil
}
