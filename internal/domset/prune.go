package domset

import (
	"sort"

	"bedom/internal/graph"
)

// Prune greedily removes redundant vertices from a distance-r dominating set
// until it is (inclusion-)minimal: a vertex is dropped when every vertex it
// covers is also covered by another remaining dominator.  Vertices are
// examined in the order given by tryOrder (falling back to decreasing vertex
// id), so callers can prioritise dropping late/large vertices first.
//
// This is an engineering extension beyond the paper: the sets produced by
// Theorem 5 / Theorem 9 are highly redundant by construction (every vertex
// elects a dominator independently), and a local pruning pass typically
// shrinks them by a large constant factor without affecting the
// approximation guarantee (a subset of a c-approximation that still
// dominates is still a c-approximation).  The pass is also easy to
// distribute (each dominator needs only its 2r-neighborhood), but only the
// sequential version is provided here and used by the experiments.
func Prune(g *graph.Graph, D []int, r int, tryOrder []int) []int {
	if len(D) == 0 {
		return nil
	}
	inD := make([]bool, g.N())
	for _, v := range D {
		inD[v] = true
	}
	// coverage[u] = number of dominators within distance r of u.
	coverage := make([]int, g.N())
	wk := graph.NewWalker(g)
	for _, v := range D {
		for _, u := range wk.Walk(v, r) {
			coverage[u]++
		}
	}
	candidates := tryOrder
	if candidates == nil {
		candidates = append([]int(nil), D...)
		sort.Sort(sort.Reverse(sort.IntSlice(candidates)))
	}
	for _, v := range candidates {
		if v < 0 || v >= g.N() || !inD[v] {
			continue
		}
		ball := wk.Walk(v, r)
		removable := true
		for _, u := range ball {
			if coverage[u] < 2 {
				removable = false
				break
			}
		}
		if !removable {
			continue
		}
		inD[v] = false
		for _, u := range ball {
			coverage[u]--
		}
	}
	var out []int
	for v, in := range inD {
		if in {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
