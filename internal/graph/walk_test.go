package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refBFS is the plain reference the walker is checked against: a FIFO over
// a []int distance array, scanning rows in increasing id, that enters only
// the vertices allow accepts and stops expanding at maxDepth (negative: no
// bound).  It returns the visit order and the distance array.
func refBFS(g *Graph, srcs []int, maxDepth int, allow func(v int) bool) ([]int, []int) {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Unreached
	}
	var order []int
	for _, s := range srcs {
		if dist[s] == Unreached {
			dist[s] = 0
			order = append(order, s)
		}
	}
	for head := 0; head < len(order); head++ {
		x := order[head]
		if maxDepth >= 0 && dist[x] >= maxDepth {
			continue
		}
		for _, y := range g.Neighbors(x) {
			if u := int(y); dist[u] == Unreached && allow(u) {
				dist[u] = dist[x] + 1
				order = append(order, u)
			}
		}
	}
	return order, dist
}

func all(int) bool { return true }

// checkWalk compares one walk with the reference: the same vertices in the
// same order, and the same depth for every vertex of g.
func checkWalk(t *testing.T, what string, w *Walker, got []int32, order, dist []int) {
	t.Helper()
	ints := make([]int, len(got))
	for i, v := range got {
		ints[i] = int(v)
	}
	if !slices.Equal(ints, order) {
		t.Fatalf("%s: walk %v, reference %v", what, ints, order)
	}
	for v, d := range dist {
		if w.Depth(v) != d || w.Reached(v) != (d != Unreached) {
			t.Fatalf("%s: depth of %d is %d (reached %v), reference %d", what, v, w.Depth(v), w.Reached(v), d)
		}
	}
}

// TestWalkerMatchesReference runs every kind of walk on 120 seeded random
// sparse graphs (many of them disconnected) and compares each with refBFS:
// unrestricted, depth-bounded and multi-source walks directly; member walks
// with a BFS on the induced subgraph; floor walks with a BFS that skips ids
// at or below the source.  One walker serves all walks of a graph, so stale
// stamps from earlier walks are exercised too.
func TestWalkerMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		g := randomGraph(t, n, (1+2*rng.Float64())/float64(n), seed)
		w := NewWalker(g)
		for src := 0; src < n; src++ {
			for _, depth := range []int{-1, 0, 1, 2, 3} {
				order, dist := refBFS(g, []int{src}, depth, all)
				checkWalk(t, "walk", w, w.Walk(src, depth), order, dist)

				floor := func(v int) bool { return v > src }
				order, dist = refBFS(g, []int{src}, depth, floor)
				checkWalk(t, "floor walk", w, w.WalkAbove(src, depth), order, dist)
			}
		}
		for trial := 0; trial < 10; trial++ {
			srcs := make([]int, 1+rng.Intn(4))
			for i := range srcs {
				srcs[i] = rng.Intn(n)
			}
			depth := rng.Intn(5) - 1
			order, dist := refBFS(g, srcs, depth, all)
			checkWalk(t, "multi-source walk", w, w.WalkFrom(srcs, depth), order, dist)

			// A random member set with repeats; the walk from one member
			// must reach exactly what a BFS on the induced subgraph reaches.
			var members []int
			in := make([]bool, n)
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					members = append(members, v, v)
					in[v] = true
				}
			}
			if len(members) == 0 {
				continue
			}
			if k := w.SetMembers(members); k != len(members)/2 {
				t.Fatalf("seed %d: SetMembers counted %d distinct of %v", seed, k, members)
			}
			src := members[2*rng.Intn(len(members)/2)]
			order, dist = refBFS(g, []int{src}, depth, func(v int) bool { return in[v] })
			checkWalk(t, "member walk", w, w.WalkMembers(src, depth), order, dist)
			sub, orig := g.InducedSubgraph(members)
			local := slices.Index(orig, src)
			_, subDist := refBFS(sub, []int{local}, depth, all)
			for i, v := range orig {
				if w.Depth(v) != subDist[i] {
					t.Fatalf("seed %d: member walk depth of %d is %d, induced subgraph BFS %d", seed, v, w.Depth(v), subDist[i])
				}
			}
		}
	}
}

// TestWalkerStampWrap starts both stamp counters just below their wrap,
// after a first walk and a first member set left marks at the post-wrap
// stamp value 1, and checks every walk on either side of the wrap against
// the reference.  A wrap that does not clear the stamps would see those
// old marks as current.
func TestWalkerStampWrap(t *testing.T) {
	g := randomGraph(t, 50, 0.08, 7)
	w := NewWalker(g)
	evens := make([]int, 0, 25)
	for v := 0; v < 50; v += 2 {
		evens = append(evens, v)
	}
	w.Walk(0, -1)
	w.SetMembers(evens)
	w.cur = math.MaxUint32 - 2
	w.mcur = math.MaxUint32 - 1
	for i := 0; i < 6; i++ {
		src := 5 * i
		order, dist := refBFS(g, []int{src}, 3, all)
		checkWalk(t, "walk across the wrap", w, w.Walk(src, 3), order, dist)

		odds := []int{src}
		for v := 1; v < 50; v += 2 {
			odds = append(odds, v)
		}
		w.SetMembers(odds)
		in := func(v int) bool { return v == src || v%2 == 1 }
		order, dist = refBFS(g, []int{src}, -1, in)
		checkWalk(t, "member walk across the wrap", w, w.WalkMembers(src, -1), order, dist)
	}
	if w.cur >= math.MaxUint32-2 || w.mcur >= math.MaxUint32-1 {
		t.Fatalf("stamps did not wrap: cur=%d mcur=%d", w.cur, w.mcur)
	}
}
