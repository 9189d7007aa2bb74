package graph

import "math"

// Unreached is the distance value reported for vertices not reached by a
// bounded or disconnected search.
const Unreached = -1

// Walker is the library's one bounded breadth-first search.  A walk starts
// from one or more sources, goes at most a given number of steps, scans
// every row in increasing vertex id and returns the vertices it reached in
// BFS order.  Two optional restrictions narrow what a walk may enter:
//
//   - WalkMembers enters only the members of the set named by the last
//     SetMembers call (a cluster, a part, a candidate connected set);
//   - WalkAbove enters only ids above its source (Algorithm 3's "only
//     vertices larger than v" on a graph relabelled by L-position).
//
// Sources are always entered.  A walker marks visited vertices with a
// per-vertex stamp that each walk bumps, so starting a walk costs nothing
// proportional to n; the stamps are cleared only when the counter wraps.
// Creating a walker costs O(n), so a loop, a worker block or a simulated
// node creates one and reuses it.  A walker is not safe for concurrent use.
type Walker struct {
	g *Graph
	// seen[v] == cur marks v as reached by the current walk, and depth[v]
	// is then its distance from the sources.
	seen  []uint32
	cur   uint32
	depth []int32
	// member[v] == mcur marks v as a member of the set of the last
	// SetMembers call; allocated by the first such call.
	member []uint32
	mcur   uint32
	// queue is the FIFO of the current walk and, once it ends, the walk's
	// output in BFS order.
	queue []int32
}

// NewWalker returns a walker over g.
func NewWalker(g *Graph) *Walker {
	return &Walker{g: g, seen: make([]uint32, g.n), depth: make([]int32, g.n)}
}

// Graph returns the graph the walker searches.
func (w *Walker) Graph() *Graph { return w.g }

// Walk searches from src for at most maxDepth steps (a negative maxDepth
// means no bound) and returns the reached vertices in BFS order, src first:
// with maxDepth = r, the closed r-ball N_r[src].  The slice is owned by the
// walker and valid until its next walk.
func (w *Walker) Walk(src, maxDepth int) []int32 { return w.from(src, maxDepth, false, -1) }

// WalkFrom is Walk from every vertex of srcs at once: the depth of a
// reached vertex is its distance to the nearest source.  Repeated sources
// are entered once.
func (w *Walker) WalkFrom(srcs []int, maxDepth int) []int32 {
	w.begin()
	for _, s := range srcs {
		if w.seen[s] != w.cur {
			w.enter(int32(s), 0)
		}
	}
	return w.run(maxDepth, false, -1)
}

// WalkMembers is Walk confined to the members of the last SetMembers call:
// it searches the subgraph they induce (plus src).
func (w *Walker) WalkMembers(src, maxDepth int) []int32 { return w.from(src, maxDepth, true, -1) }

// WalkAbove is Walk entering only vertices with an id larger than src.
func (w *Walker) WalkAbove(src, maxDepth int) []int32 {
	return w.from(src, maxDepth, false, int32(src))
}

// SetMembers names the vertex set WalkMembers walks within and returns the
// number of distinct vertices in verts.
func (w *Walker) SetMembers(verts []int) int {
	if w.member == nil {
		w.member = make([]uint32, w.g.n)
	}
	w.mcur++
	if w.mcur == 0 {
		clear(w.member)
		w.mcur = 1
	}
	k := 0
	for _, v := range verts {
		if w.member[v] != w.mcur {
			w.member[v] = w.mcur
			k++
		}
	}
	return k
}

// Reached reports whether the last walk reached v.
func (w *Walker) Reached(v int) bool { return w.seen[v] == w.cur }

// Depth returns v's distance from the sources of the last walk, or
// Unreached when that walk did not reach v.
func (w *Walker) Depth(v int) int {
	if w.seen[v] != w.cur {
		return Unreached
	}
	return int(w.depth[v])
}

// begin starts a walk: a fresh stamp (clearing the stamps when the counter
// wraps, so no stale mark can equal it) and an empty queue.
func (w *Walker) begin() {
	w.cur++
	if w.cur == 0 {
		clear(w.seen)
		w.cur = 1
	}
	w.queue = w.queue[:0]
}

func (w *Walker) from(src, maxDepth int, members bool, floor int32) []int32 {
	w.begin()
	w.enter(int32(src), 0)
	return w.run(maxDepth, members, floor)
}

func (w *Walker) enter(v, d int32) {
	w.seen[v] = w.cur
	w.depth[v] = d
	w.queue = append(w.queue, v)
}

// run drains the queue.  Depths along the queue never decrease, so the
// walk stops at the first vertex at the depth bound.  A member walk enters
// only stamped members; every walk enters only ids above floor.
func (w *Walker) run(maxDepth int, members bool, floor int32) []int32 {
	bound := int32(math.MaxInt32)
	if maxDepth >= 0 && maxDepth < math.MaxInt32 {
		bound = int32(maxDepth)
	}
	seen, depth, cur := w.seen, w.depth, w.cur
	member, mcur := w.member, w.mcur
	q := w.queue
	for head := 0; head < len(q); head++ {
		x := q[head]
		d := depth[x]
		if d >= bound {
			break
		}
		for _, y := range w.g.Neighbors(int(x)) {
			if y <= floor || seen[y] == cur || (members && member[y] != mcur) {
				continue
			}
			seen[y] = cur
			depth[y] = d + 1
			q = append(q, y)
		}
	}
	w.queue = q
	return q
}

// Dist returns the distance between u and v, or Unreached if they are in
// different components.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	w := NewWalker(g)
	w.Walk(u, -1)
	return w.Depth(v)
}

// MultiSourceDistances returns, for every vertex, its distance to the nearest
// source in srcs (Unreached if no source is reachable).  This is the standard
// tool for checking distance-r domination: D is a distance-r dominating set
// iff every entry is in [0, r].
func (g *Graph) MultiSourceDistances(srcs []int) []int {
	w := NewWalker(g)
	w.WalkFrom(srcs, -1)
	dist := make([]int, g.n)
	for v := range dist {
		dist[v] = w.Depth(v)
	}
	return dist
}
