package graph

// DegeneracyOrder computes a degeneracy ordering of g using the linear-time
// bucket algorithm of Matula–Beck in the flat-array formulation of
// Batagelj–Zaveršnik: vertices live in one array sorted by current degree,
// a bin table marks the start of each degree block, and removing a vertex
// swap-moves each affected neighbor one block down.  No per-bucket slices,
// no stale entries, no allocations beyond five flat arrays.
//
// It returns the ordering as a slice order (order[i] is the i-th vertex)
// and the degeneracy k of the graph.
//
// The ordering has the property that every vertex has at most k neighbors
// that appear *later* in the ordering.  The library's convention for linear
// orders L (see internal/order) is that each vertex should have few neighbors
// that are *smaller* with respect to L, therefore callers typically reverse
// this ordering; order.FromDegeneracy takes care of that.
func (g *Graph) DegeneracyOrder() (order []int, degeneracy int) {
	n := g.n
	if n == 0 {
		return nil, 0
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// bin[d] = index in vert of the first vertex whose current degree is d.
	bin := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]+1]++
	}
	for d := int32(1); d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	vert := make([]int32, n) // vertices sorted by current degree
	pos := make([]int32, n)  // pos[v] = index of v in vert
	cursor := make([]int32, maxDeg+1)
	copy(cursor, bin[:maxDeg+1])
	for v := 0; v < n; v++ {
		pos[v] = cursor[deg[v]]
		vert[pos[v]] = int32(v)
		cursor[deg[v]]++
	}

	order = make([]int, n)
	for i := 0; i < n; i++ {
		v := vert[i]
		dv := deg[v]
		if dv > int32(degeneracy) {
			degeneracy = int(dv)
		}
		order[i] = int(v)
		for _, wn := range g.Neighbors(int(v)) {
			u := int32(wn)
			// Only neighbors in strictly higher degree blocks move; degrees
			// frozen at the current level keep the pop-degree sequence
			// monotone, so every touched block starts after position i.
			if deg[u] <= dv {
				continue
			}
			// Swap u with the first vertex of its degree block, advance the
			// block boundary past it and decrement u's degree.
			du := deg[u]
			pu := pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				vert[pu], vert[pw] = w, u
				pos[u], pos[w] = pw, pu
			}
			bin[du] = pw + 1
			deg[u]--
		}
	}
	return order, degeneracy
}

// Degeneracy returns the degeneracy of g.  A finalized graph never
// changes, so the first call computes it and later calls read it back.
func (g *Graph) Degeneracy() int {
	if k := g.degeneracy.Load(); k > 0 {
		return int(k - 1)
	}
	_, k := g.DegeneracyOrder()
	g.degeneracy.Store(int32(k + 1))
	return k
}
