package domset

import (
	"sort"

	"bedom/internal/graph"
)

// Exact computes the exact minimum size of a distance-r dominating set of g
// using branch and bound over the equivalent set-cover instance (universe =
// vertices, sets = closed r-balls).  The search is limited to `budget`
// branching nodes (a non-positive budget selects a generous default); the
// second return value reports whether the search completed within the budget
// and the answer is therefore provably optimal.
//
// Exact is intended for the small instances used to measure true
// approximation ratios in experiment E1 (n up to a few dozen).
func Exact(g *graph.Graph, r, budget int) (int, bool) {
	n := g.N()
	if n == 0 {
		return 0, true
	}
	if budget <= 0 {
		budget = 2_000_000
	}
	balls, dominatorsOf := ballSystem(g, r)
	// Greedy upper bound to prime the search.
	best := len(Greedy(g, r))
	covered := graph.NewBitset(n)
	nodes := 0
	exhausted := true

	var search func(size int)
	search = func(size int) {
		nodes++
		if nodes > budget {
			exhausted = false
			return
		}
		if size >= best {
			return
		}
		// Find the uncovered vertex with the fewest candidate dominators.
		pick := -1
		pickDeg := -1
		allCovered := true
		for u := 0; u < n; u++ {
			if covered.Get(u) {
				continue
			}
			allCovered = false
			d := len(dominatorsOf[u])
			if pick == -1 || d < pickDeg {
				pick, pickDeg = u, d
				if d <= 1 {
					break
				}
			}
		}
		if allCovered {
			if size < best {
				best = size
			}
			return
		}
		// Simple lower bound: the uncovered vertices still need at least
		// ceil(uncovered / maxBall) dominators.
		uncov := n - covered.Count()
		maxBall := 0
		for v := 0; v < n; v++ {
			if c := balls[v].Count(); c > maxBall {
				maxBall = c
			}
		}
		if maxBall > 0 && size+(uncov+maxBall-1)/maxBall >= best {
			return
		}
		// Branch on each candidate dominator of the pick.
		for _, v := range dominatorsOf[pick] {
			newly := make([]int, 0, 8)
			for _, u := range balls[v].Members() {
				if !covered.Get(u) {
					covered.Set(u)
					newly = append(newly, u)
				}
			}
			search(size + 1)
			for _, u := range newly {
				covered.Clear(u)
			}
			if !exhausted {
				return
			}
		}
	}
	search(0)
	return best, exhausted
}

// ExactSet returns one optimal distance-r dominating set (not just its size)
// for small graphs, using the same branch and bound.  It returns nil when
// the budget is exhausted before optimality is proven.
func ExactSet(g *graph.Graph, r, budget int) []int {
	optSize, ok := Exact(g, r, budget)
	if !ok {
		return nil
	}
	n := g.N()
	if n == 0 {
		return []int{}
	}
	// Re-run a constrained search that records a witness of size optSize.
	balls, dominatorsOf := ballSystem(g, r)
	covered := graph.NewBitset(n)
	var chosen []int
	var result []int
	nodes := 0
	var search func()
	search = func() {
		if result != nil {
			return
		}
		nodes++
		if budget > 0 && nodes > budget {
			return
		}
		if covered.Count() == n {
			result = append([]int(nil), chosen...)
			return
		}
		if len(chosen) >= optSize {
			return
		}
		pick := -1
		pickDeg := -1
		for u := 0; u < n; u++ {
			if covered.Get(u) {
				continue
			}
			d := len(dominatorsOf[u])
			if pick == -1 || d < pickDeg {
				pick, pickDeg = u, d
			}
		}
		for _, v := range dominatorsOf[pick] {
			newly := make([]int, 0, 8)
			for _, u := range balls[v].Members() {
				if !covered.Get(u) {
					covered.Set(u)
					newly = append(newly, u)
				}
			}
			chosen = append(chosen, v)
			search()
			chosen = chosen[:len(chosen)-1]
			for _, u := range newly {
				covered.Clear(u)
			}
			if result != nil {
				return
			}
		}
	}
	search()
	if result == nil {
		return nil
	}
	sort.Ints(result)
	return result
}

// ballSystem is the set-cover instance Exact and ExactSet search: the closed
// r-ball of every vertex as a bitset, and dominatorsOf[u] = {v : u ∈
// ball(v)} in increasing order.
func ballSystem(g *graph.Graph, r int) (balls []*graph.Bitset, dominatorsOf [][]int) {
	n := g.N()
	balls = make([]*graph.Bitset, n)
	dominatorsOf = make([][]int, n)
	wk := graph.NewWalker(g)
	for v := 0; v < n; v++ {
		balls[v] = graph.NewBitset(n)
		for _, u := range wk.Walk(v, r) {
			balls[v].Set(int(u))
			dominatorsOf[u] = append(dominatorsOf[u], v)
		}
	}
	return balls, dominatorsOf
}
