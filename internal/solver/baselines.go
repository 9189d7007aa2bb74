package solver

import (
	"context"

	"bedom/internal/domset"
	"bedom/internal/graph"
)

// greedySolver is the classical ln(n)-approximation: repeatedly add the
// vertex whose closed r-ball covers the most uncovered vertices.  It needs
// no substrate, so it is the cheapest strategy on a cold cache.
type greedySolver struct{}

func (greedySolver) Name() string { return "greedy" }

func (greedySolver) Solve(_ context.Context, g *graph.Graph, r int, _ Substrate) (Result, error) {
	D := domset.Greedy(g, r)
	return Result{Set: D, LowerBound: domset.ScatteredLowerBound(g, r, D)}, nil
}

// orderGreedySolver processes vertices in increasing weak-reachability order
// and adds every vertex not yet dominated — the order-driven baseline in the
// spirit of Dvořák's first-fit analysis (constant factor on bounded
// expansion, roughly wcol_2r²).
type orderGreedySolver struct{}

func (orderGreedySolver) Name() string { return "order-greedy" }

func (orderGreedySolver) Solve(ctx context.Context, g *graph.Graph, r int, sub Substrate) (Result, error) {
	o, err := sub.Order(ctx, r)
	if err != nil {
		return Result{}, err
	}
	D := domset.OrderGreedy(g, o.Positions(), r)
	return Result{Set: D, LowerBound: domset.ScatteredLowerBound(g, r, D)}, nil
}
