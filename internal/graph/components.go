package graph

// Components returns the connected components of g as slices of vertices and
// a lookup comp[v] = component index.  Components are numbered by their
// smallest vertex, and each part lists its vertices in BFS order from that
// vertex, scanning neighbours in increasing id; LargestComponent numbers its
// subgraph in this order, so the order is part of the contract.
func (g *Graph) Components() (parts [][]int, comp []int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	w := NewWalker(g)
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		reached := w.Walk(s, -1)
		part := make([]int, len(reached))
		for i, v := range reached {
			part[i] = int(v)
			comp[v] = len(parts)
		}
		parts = append(parts, part)
	}
	return parts, comp
}

// IsConnected reports whether g is connected (the empty graph and the
// one-vertex graph are considered connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return len(NewWalker(g).Walk(0, -1)) == g.n
}

// IsConnectedSubset reports whether the subgraph of g induced by verts is
// connected.  An empty or singleton set is considered connected.
func (g *Graph) IsConnectedSubset(verts []int) bool {
	if len(verts) <= 1 {
		return true
	}
	w := NewWalker(g)
	k := w.SetMembers(verts)
	return len(w.WalkMembers(verts[0], -1)) == k
}
