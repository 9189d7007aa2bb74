// Package domset implements sequential algorithms for the DISTANCE-r
// DOMINATING SET problem: the paper's constant-factor approximation
// (Algorithm 1 of Theorem 5), the classical greedy baseline, an order-greedy
// baseline in the spirit of Dvořák's earlier algorithm, an exact
// branch-and-bound solver for small instances, and lower-bound routines used
// to measure approximation ratios in the experiments.
package domset

import (
	"sort"

	"bedom/internal/graph"
	"bedom/internal/order"
)

// Check reports whether D is a distance-r dominating set of g: every vertex
// must be within distance r of some element of D.  A D holding an id
// outside [0, n) is not one, and neither is any D for r < 0; the empty set
// dominates only the empty graph.
func Check(g *graph.Graph, D []int, r int) bool {
	for _, v := range D {
		if v < 0 || v >= g.N() {
			return false
		}
	}
	if g.N() == 0 {
		return true
	}
	if len(D) == 0 || r < 0 {
		return false
	}
	return len(graph.NewWalker(g).WalkFrom(D, r)) == g.N()
}

// FromOrder computes the paper's distance-r dominating set
//
//	D := { min WReach_r[G, L, w] : w ∈ V(G) }
//
// directly from the weak reachability sets (equation (2) in the proof of
// Theorem 5): the distinct homes of one radius-r sweep.  It is equivalent
// to AlgorithmOne (a test asserts this).
func FromOrder(g *graph.Graph, o *order.Order, r int) []int {
	return FromHomes(order.WReachSweep(g, o, r, r, 0).Homes)
}

// FromHomes returns the distinct values of homes, sorted increasingly.  For
// the homes of a sweep at radius r (order.Sweep.Homes) that is the set
// Algorithm 1 returns, nil on the empty graph as there.
func FromHomes(homes []int) []int {
	in := make([]bool, len(homes))
	k := 0
	for _, h := range homes {
		if !in[h] {
			in[h] = true
			k++
		}
	}
	if k == 0 {
		return nil
	}
	D := make([]int, 0, k)
	for v, ok := range in {
		if ok {
			D = append(D, v)
		}
	}
	return D
}

// AlgorithmOne is a faithful implementation of Algorithm 1 (DomSet) of the
// paper: it sorts the adjacency lists consistently with L (Algorithm 2),
// iterates through the vertices in increasing order and runs, for each
// vertex v, the restricted breadth-first search of Algorithm 3 (only
// vertices larger than v, at most r steps).  Vertex v joins the dominating
// set if its restricted ball contains a vertex that is not yet dominated.
func AlgorithmOne(g *graph.Graph, o *order.Order, r int) []int {
	n := g.N()
	// On g relabelled by L-position, "larger than v" is "id above v's
	// position", so Algorithm 3 is a walk with its floor at the source.
	wk := graph.NewWalker(sortLists(g, o))
	dominated := make([]bool, n) // by position
	var D []int
	for i := 0; i < n; i++ {
		ball := wk.WalkAbove(i, r)
		for _, p := range ball {
			if !dominated[p] {
				D = append(D, o.At(i))
				for _, q := range ball {
					dominated[q] = true
				}
				break
			}
		}
	}
	sort.Ints(D)
	return D
}

// sortLists is Algorithm 2 (SortLists): g relabelled by L-position, with
// every row sorted increasingly w.r.t. L.  Scattering the positions in
// increasing order into their neighbours' rows writes each row already
// sorted, so no row needs a sort afterwards.
func sortLists(g *graph.Graph, o *order.Order) *graph.Graph {
	n := g.N()
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int32(g.Degree(o.At(i)))
	}
	tgt := make([]int32, off[n])
	next := make([]int32, n)
	copy(next, off)
	for i := 0; i < n; i++ {
		for _, w := range g.Neighbors(o.At(i)) {
			p := o.Pos(int(w))
			tgt[next[p]] = int32(i)
			next[p]++
		}
	}
	lg, err := graph.FromCSRBorrowed(off, tgt)
	if err != nil {
		panic("domset: SortLists needs a finalized graph: " + err.Error())
	}
	return lg
}
