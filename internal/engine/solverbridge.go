package engine

import (
	"context"

	"bedom/internal/graph"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// engineSubstrate adapts the engine's cached substrate accessors to the
// solver.Substrate interface.  Fetches run under the context the solver
// passes, which is the domset answer build's, so nested substrate builds do
// not inherit one requester's deadline, record their spans in the query's
// trace and count as the answer build's nested time (see Engine.build).
type engineSubstrate struct {
	e   *Engine
	g   *graph.Graph
	gen uint64
}

func (s *engineSubstrate) Order(ctx context.Context, r int) (*order.Order, error) {
	o, _, err := s.e.orderFor(ctx, s.g, s.gen, r)
	return o, err
}

func (s *engineSubstrate) WReach(ctx context.Context, orderR, r int) (*order.Sweep, error) {
	return s.e.wreachFor(ctx, s.g, s.gen, orderR, r)
}

// solve runs the solver strategy for radius r into the answer's response.
// ctx is the answer build's.
func (e *Engine) solve(ctx context.Context, g *graph.Graph, gen uint64, r int, s solver.Solver, resp *Response) error {
	e.stage("solve:" + s.Name())
	res, err := s.Solve(ctx, g, r, &engineSubstrate{e: e, g: g, gen: gen})
	if err != nil {
		return err
	}
	resp.Solver = s.Name()
	resp.Set, resp.Size = res.Set, len(res.Set)
	resp.LowerBound, resp.Wcol = res.LowerBound, res.Wcol
	return nil
}
