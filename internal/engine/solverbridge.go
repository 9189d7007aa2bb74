package engine

import (
	"context"
	"sync"
	"time"

	"bedom/internal/graph"
	"bedom/internal/obs"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// engineSubstrate adapts the engine's cached substrate accessors to the
// solver.Substrate interface.  Fetches run under the context the solver
// passes, which is the admitted one domsetFor gave it: a solver runs inside
// an admitted result build, so nested substrate builds ride the parent's
// rebuild slot, must not inherit one requester's deadline (see wreachFor),
// and record their spans in the query's trace.  The adapter tracks whether
// every fetch was a cache hit (the query's CacheHit report) and the time
// spent inside fetches, so domsetFor can account the solver's own compute
// without double-counting nested builds.
type engineSubstrate struct {
	e      *Engine
	g      *graph.Graph
	gen    uint64
	allHit bool
	nested time.Duration
}

func (s *engineSubstrate) Order(ctx context.Context, r int) (*order.Order, error) {
	start := time.Now()
	o, hit, err := s.e.orderFor(ctx, s.g, s.gen, r)
	s.nested += time.Since(start)
	if !hit {
		s.allHit = false
	}
	return o, err
}

func (s *engineSubstrate) WReach(ctx context.Context, orderR, r int) ([][]int, error) {
	start := time.Now()
	sets, hit, err := s.e.wreachFor(ctx, s.g, s.gen, orderR, r)
	s.nested += time.Since(start)
	if !hit {
		s.allHit = false
	}
	return sets, err
}

func (s *engineSubstrate) Wcol(ctx context.Context, orderR, r int) (int, error) {
	start := time.Now()
	wcol, hit, err := s.e.wcolFor(ctx, s.g, s.gen, orderR, r)
	s.nested += time.Since(start)
	if !hit {
		s.allHit = false
	}
	return wcol, err
}

// cachedDomset is the kindDomset substrate: a solver's result and its set
// as a JSON array, encoded at most once, by the first response that needs
// it (facade and engine-only callers never pay for it).  The bytes live and
// die with the cache entry.
type cachedDomset struct {
	res     solver.Result
	once    sync.Once
	setJSON []byte
}

// setArray returns the set's JSON array, encoding it on first use.
func (c *cachedDomset) setArray() []byte {
	c.once.Do(func() { c.setJSON = appendInts(nil, c.res.Set) })
	return c.setJSON
}

// domsetFor returns the (cached) domination result of the given solver
// strategy for radius r.  Results are substrates like orders and covers:
// keyed by (generation, radius, solver name), they invalidate on mutation
// and re-registration exactly like the substrates they were computed from —
// including across WAL replay, where recovered graphs start a fresh
// generation.  hit reports the legacy CacheHit contract: true when the
// result (or, on a result miss, every substrate the solver fetched) was
// served from the cache.
func (e *Engine) domsetFor(ctx context.Context, g *graph.Graph, gen uint64, r int, s solver.Solver) (*cachedDomset, bool, error) {
	_, sp := obs.Start(ctx, "substrate:domset")
	defer sp.End()
	key := substrateKey{gen: gen, kind: kindDomset, a: r, solver: s.Name()}
	var warm bool
	v, hit, err := e.getSubstrate(ctx, key, func() (any, error) {
		e.stage("solve:" + s.Name())
		sub := &engineSubstrate{e: e, g: g, gen: gen, allHit: true}
		start := time.Now()
		res, err := s.Solve(admitted(ctx), g, r, sub)
		if err != nil {
			return nil, err
		}
		// Exclusive build time: nested substrate fetches account themselves
		// via timedBuild, so only the solver's own compute is added here.
		e.cache.addBuildTime("solve", time.Since(start)-sub.nested)
		warm = sub.allHit
		return &cachedDomset{res: res}, nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*cachedDomset), hit || warm, nil
}
