package solver

import (
	"context"
	"sort"

	"bedom/internal/domset"
	"bedom/internal/graph"
)

// dvorakSolver is an order-driven linear-time approximation in the spirit of
// Dvořák (arXiv 1110.5190): sweep the vertices in increasing
// weak-reachability order, and whenever a vertex v is not yet dominated,
// delegate to its L-least weak r-reachable vertex w = min WReach_r[G, L, v]
// (which is within distance r of v, so adding w dominates v).  Charging each
// added dominator to the sweep vertex that selected it bounds the set by a
// function of wcol_r alone, and the sweep costs one r-ball walk per added
// dominator on top of the shared substrates — linear for fixed r on bounded
// expansion classes.
//
// Unlike the paper pipeline it never looks at wcol_2r sets, and unlike
// order-greedy it adds the delegate w rather than v itself, which typically
// lands between the two in solution quality (experiment E10).
type dvorakSolver struct{}

func (dvorakSolver) Name() string { return "dvorak" }

func (dvorakSolver) Solve(ctx context.Context, g *graph.Graph, r int, sub Substrate) (Result, error) {
	o, err := sub.Order(ctx, r)
	if err != nil {
		return Result{}, err
	}
	sw, err := sub.WReach(ctx, r, r)
	if err != nil {
		return Result{}, err
	}
	n := g.N()
	dominated := make([]bool, n)
	wk := graph.NewWalker(g)
	var D []int
	for i := 0; i < n; i++ {
		v := o.At(i)
		if dominated[v] {
			continue
		}
		// w is within distance r of v by the definition of WReach_r, so the
		// ball marking below always covers v.  A delegate can never repeat:
		// were w already in D, its ball would have marked v dominated.
		w := sw.Homes[v]
		D = append(D, w)
		for _, u := range wk.Walk(w, r) {
			dominated[u] = true
		}
	}
	sort.Ints(D)
	return Result{
		Set:        D,
		LowerBound: domset.ScatteredLowerBound(g, r, D),
		Wcol:       sw.Max,
	}, nil
}
