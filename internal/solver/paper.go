package solver

import (
	"context"

	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/graph"
)

// paperSolver is the SPAA 2018 pipeline: Algorithm 1 on the
// weak-reachability order (Theorem 5) sequentially, the Theorem 9 election
// pipeline in CONGEST_BC distributed.  It is the default strategy, and its
// outputs are the reference every determinism test pins down.
//
// Algorithm 1 returns D = { min WReach_r[G, L, w] : w ∈ V(G) } (proof of
// Theorem 5), so the sequential set is the distinct homes of the (r, 2r)
// sweep whose sets certify wcol_2r: one sweep serves both.
type paperSolver struct{}

func (paperSolver) Name() string { return "paper" }

func (paperSolver) Solve(ctx context.Context, g *graph.Graph, r int, sub Substrate) (Result, error) {
	sw, err := sub.WReach(ctx, r, 2*r)
	if err != nil {
		return Result{}, err
	}
	D := domset.FromHomes(sw.Homes)
	return Result{
		Set:        D,
		LowerBound: domset.ScatteredLowerBound(g, r, D),
		Wcol:       sw.Sets.Max(),
	}, nil
}

func (paperSolver) SolveDist(g *graph.Graph, r int, sim dist.Options) (DistResult, error) {
	res, err := distalgo.RunDomSet(g, r, dist.CongestBC, sim)
	if err != nil {
		return DistResult{}, err
	}
	return DistResult{Set: res.Set, Stats: res.Stats}, nil
}
