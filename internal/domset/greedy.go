package domset

import (
	"container/heap"
	"sort"

	"bedom/internal/graph"
)

// Greedy computes a distance-r dominating set with the classical greedy
// heuristic: repeatedly add the vertex whose closed r-ball covers the most
// not-yet-covered vertices.  This is the ln n-approximation the paper cites
// as the general-graph baseline; it serves as a comparison point in
// experiment E1.
//
// The implementation uses lazy evaluation of the (submodular) coverage gain,
// so each ball is recomputed only when its cached gain might be stale.
func Greedy(g *graph.Graph, r int) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	covered := make([]bool, n)
	wk := graph.NewWalker(g)
	gain := func(v int) int {
		cnt := 0
		for _, u := range wk.Walk(v, r) {
			if !covered[u] {
				cnt++
			}
		}
		return cnt
	}
	// Cached gains must upper-bound the true gain for the lazy evaluation to
	// pick the exact greedy choice (gains only shrink as coverage grows), so
	// every item starts at the trivial upper bound n and marked stale.
	pq := make(lazyQueue, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, lazyItem{v: v, gain: n, stale: true})
	}
	heap.Init(&pq)
	var D []int
	numCovered := 0
	for numCovered < n && pq.Len() > 0 {
		top := pq[0]
		fresh := gain(top.v)
		if fresh == 0 {
			heap.Pop(&pq)
			continue
		}
		if top.stale || fresh != top.gain {
			pq[0].gain = fresh
			pq[0].stale = false
			heap.Fix(&pq, 0)
			continue
		}
		heap.Pop(&pq)
		D = append(D, top.v)
		for _, u := range wk.Walk(top.v, r) {
			if !covered[u] {
				covered[u] = true
				numCovered++
			}
		}
		// All remaining cached gains may now be stale.
		for i := range pq {
			pq[i].stale = true
		}
	}
	sort.Ints(D)
	return D
}

type lazyItem struct {
	v     int
	gain  int
	stale bool
}

type lazyQueue []lazyItem

func (q lazyQueue) Len() int            { return len(q) }
func (q lazyQueue) Less(i, j int) bool  { return q[i].gain > q[j].gain }
func (q lazyQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *lazyQueue) Push(x interface{}) { *q = append(*q, x.(lazyItem)) }
func (q *lazyQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// OrderGreedy is the order-driven baseline in the spirit of Dvořák's
// constant-factor algorithm: process vertices in increasing order L and add
// a vertex to the dominating set whenever it is not yet distance-r dominated
// by the current set.  On bounded expansion classes with a good order this
// also achieves a constant factor (roughly wcol_2r²), which is the ratio the
// paper improves on; the experiments compare the two.
func OrderGreedy(g *graph.Graph, positions []int, r int) []int {
	n := g.N()
	type pv struct{ pos, v int }
	vs := make([]pv, n)
	for v := 0; v < n; v++ {
		vs[v] = pv{positions[v], v}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].pos < vs[j].pos })
	covered := make([]bool, n)
	wk := graph.NewWalker(g)
	var D []int
	for _, x := range vs {
		if covered[x.v] {
			continue
		}
		D = append(D, x.v)
		for _, u := range wk.Walk(x.v, r) {
			covered[u] = true
		}
	}
	sort.Ints(D)
	return D
}
