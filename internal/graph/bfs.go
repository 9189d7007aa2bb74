package graph

// Unreached is the distance value reported for vertices not reached by a
// bounded or disconnected search.
const Unreached = -1

// BFSDistances returns the distance from src to every vertex, with Unreached
// (-1) for vertices in other connected components.
func (g *Graph) BFSDistances(src int) []int {
	return g.BFSDistancesBounded(src, -1)
}

// BFSDistancesBounded returns distances from src up to maxDepth; vertices
// farther than maxDepth (or unreachable) get Unreached.  A negative maxDepth
// means unbounded.
func (g *Graph) BFSDistancesBounded(src, maxDepth int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	q := NewIntQueue(16)
	q.Push(src)
	for !q.Empty() {
		v := q.Pop()
		if maxDepth >= 0 && dist[v] >= maxDepth {
			continue
		}
		for _, w := range g.Neighbors(v) {
			u := int(w)
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				q.Push(u)
			}
		}
	}
	return dist
}

// Ball returns the closed r-neighborhood N_r[v] = {u : dist(v,u) ≤ r} as a
// slice in BFS order (v first).
func (g *Graph) Ball(v, r int) []int {
	if r < 0 {
		return nil
	}
	dist := map[int]int{v: 0}
	order := []int{v}
	q := NewIntQueue(16)
	q.Push(v)
	for !q.Empty() {
		x := q.Pop()
		if dist[x] >= r {
			continue
		}
		for _, w := range g.Neighbors(x) {
			u := int(w)
			if _, ok := dist[u]; !ok {
				dist[u] = dist[x] + 1
				order = append(order, u)
				q.Push(u)
			}
		}
	}
	return order
}

// BallBitset returns the closed r-neighborhood of v as a bitset.
func (g *Graph) BallBitset(v, r int) *Bitset {
	bs := NewBitset(g.n)
	for _, u := range g.Ball(v, r) {
		bs.Set(u)
	}
	return bs
}

// Dist returns the distance between u and v, or Unreached if they are in
// different components.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	return g.BFSDistances(u)[v]
}

// ShortestPath returns one shortest path from u to v (inclusive of both
// endpoints), or nil if v is unreachable from u.  Ties are broken toward
// lexicographically smallest predecessor, which makes the result
// deterministic on finalized graphs.
func (g *Graph) ShortestPath(u, v int) []int {
	if u == v {
		return []int{u}
	}
	dist := make([]int, g.n)
	pred := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreached
		pred[i] = -1
	}
	dist[u] = 0
	q := NewIntQueue(16)
	q.Push(u)
	for !q.Empty() {
		x := q.Pop()
		if x == v {
			break
		}
		for _, w := range g.Neighbors(x) {
			y := int(w)
			if dist[y] == Unreached {
				dist[y] = dist[x] + 1
				pred[y] = x
				q.Push(y)
			}
		}
	}
	if dist[v] == Unreached {
		return nil
	}
	path := []int{v}
	for x := v; x != u; x = pred[x] {
		path = append(path, pred[x])
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Eccentricity returns the maximum distance from v to any vertex of its
// connected component.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFSDistances(v)
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Radius returns min_v Eccentricity(v) of a connected graph, computed
// exactly (O(n·m)).  For a disconnected graph, vertices in other components
// are ignored per-source, so the value equals the minimum eccentricity within
// the component of the minimizing vertex; callers interested in cluster
// radii (cover verification) use it only on connected induced subgraphs.
func (g *Graph) Radius() int {
	if g.n == 0 {
		return 0
	}
	best := -1
	for v := 0; v < g.n; v++ {
		e := g.Eccentricity(v)
		if best == -1 || e < best {
			best = e
		}
	}
	return best
}

// Diameter returns max_v Eccentricity(v), computed exactly (O(n·m)).
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return 0
	}
	best := 0
	for v := 0; v < g.n; v++ {
		if e := g.Eccentricity(v); e > best {
			best = e
		}
	}
	return best
}

// MultiSourceDistances returns, for every vertex, its distance to the nearest
// source in srcs (Unreached if no source is reachable).  This is the standard
// tool for checking distance-r domination: D is a distance-r dominating set
// iff every entry is in [0, r].
func (g *Graph) MultiSourceDistances(srcs []int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreached
	}
	q := NewIntQueue(len(srcs) + 1)
	for _, s := range srcs {
		if dist[s] == Unreached {
			dist[s] = 0
			q.Push(s)
		}
	}
	for !q.Empty() {
		v := q.Pop()
		for _, w := range g.Neighbors(v) {
			u := int(w)
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				q.Push(u)
			}
		}
	}
	return dist
}
