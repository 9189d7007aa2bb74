// Package graph provides the undirected simple-graph substrate used by the
// whole library: adjacency-list graphs, the one bounded breadth-first
// search (Walker) behind every ball, distance and connectivity query,
// degeneracy orderings, bitsets and a small edge-list I/O layer.
//
// Vertices are dense integer indices 0..n-1.  All graphs are finite,
// undirected and simple, matching the preliminaries of the paper
// (Amiri, Ossona de Mendez, Rabinovich, Siebertz — SPAA 2018, §2).
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Graph is an undirected simple graph.  During construction edges accumulate
// in per-vertex adjacency slices; Finalize converts the graph to a
// compressed-sparse-row (CSR) layout — one flat offsets array and one flat
// targets array — which is the representation every algorithm in the library
// reads.  CSR rows are sorted increasingly, so HasEdge is a binary search
// and Neighbors returns a contiguous, cache-friendly slice of the shared
// targets array.
//
// The zero value is an empty graph with no vertices.  Use New or FromEdges to
// construct graphs.  After construction, call Finalize (or use FromEdges,
// which finalizes automatically); several methods (HasEdge, Neighbors
// ordering guarantees) require a finalized graph.
type Graph struct {
	n int
	m int
	// adj holds the construction-side adjacency lists; nil once finalized.
	adj [][]int32
	// off/tgt form the CSR layout of a finalized graph: the neighbors of v
	// are tgt[off[v]:off[v+1]], sorted increasingly.
	off       []int32
	tgt       []int32
	finalized bool
}

// Common construction errors.
var (
	// ErrVertexRange is returned when a vertex index is outside [0, n).
	ErrVertexRange = errors.New("graph: vertex index out of range")
	// ErrSelfLoop is returned when an edge {v, v} is added.
	ErrSelfLoop = errors.New("graph: self-loops are not allowed")
)

// New returns an empty graph on n vertices (and no edges).
func New(n int) *Graph {
	if n < 0 {
		panic("graph.New: negative vertex count")
	}
	return &Graph{
		n:   n,
		adj: make([][]int32, n),
	}
}

// FromEdges builds a finalized graph on n vertices from the given edge list.
// Duplicate edges are silently dropped; self-loops cause an error.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdgeLazy(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	g.Finalize()
	return g, nil
}

// MustFromEdges is FromEdges but panics on error.  It is intended for tests
// and examples with hand-written edge lists.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.  Until Finalize runs, edges inserted with
// AddEdgeLazy may be counted more than once; Finalize recomputes the exact
// count.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	if g.finalized {
		return int(g.off[v+1] - g.off[v])
	}
	return len(g.adj[v])
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average degree 2m/n, or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// checkEdge validates the endpoints of {u, v}.
func (g *Graph) checkEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	return nil
}

// AddEdge inserts the undirected edge {u, v}.  Adding an existing edge is a
// no-op.  Adding an edge invalidates a previous Finalize.
func (g *Graph) AddEdge(u, v int) error {
	if err := g.checkEdge(u, v); err != nil {
		return err
	}
	if g.finalized {
		if g.HasEdge(u, v) {
			return nil
		}
		g.definalize()
	} else if g.hasEdgeSlow(u, v) {
		return nil
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	return nil
}

// AddEdgeLazy inserts the undirected edge {u, v} without checking for
// duplicates: Finalize sorts the adjacency lists and removes duplicate
// entries (recomputing the edge count).  It is the fast path for bulk
// construction — ingesting m edges costs O(m) instead of the O(m·Δ)
// membership probes of AddEdge — and the intended way to build graphs whose
// edge streams may repeat edges (minors, underlying graphs of digraphs).
func (g *Graph) AddEdgeLazy(u, v int) error {
	if err := g.checkEdge(u, v); err != nil {
		return err
	}
	if g.finalized {
		g.definalize()
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	return nil
}

// hasEdgeSlow performs a linear scan over the smaller construction-side
// adjacency list; only valid on non-finalized graphs.
func (g *Graph) hasEdgeSlow(u, v int) bool {
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a = g.adj[v]
		u, v = v, u
	}
	for _, w := range a {
		if int(w) == v {
			return true
		}
	}
	return false
}

// definalize converts a finalized graph back to construction-side adjacency
// lists so that further edges can be inserted.
func (g *Graph) definalize() {
	adj := make([][]int32, g.n)
	for v := 0; v < g.n; v++ {
		row := g.tgt[g.off[v]:g.off[v+1]]
		adj[v] = append(make([]int32, 0, len(row)+1), row...)
	}
	g.adj, g.off, g.tgt, g.finalized = adj, nil, nil, false
}

// Finalize converts the graph to its CSR representation: every adjacency
// list is sorted increasingly, duplicate entries (from AddEdgeLazy) are
// removed, the exact edge count is recomputed, and the lists are packed into
// one flat targets array indexed by a flat offsets array.  It is idempotent.
// Finalized graphs support O(log deg) HasEdge queries and guarantee that
// Neighbors returns vertices in increasing order.
func (g *Graph) Finalize() { g.FinalizeWorkers(0) }

// FinalizeWorkers is Finalize with an explicit bound on the goroutines of
// the packing passes (0 = GOMAXPROCS); the result is identical for every
// worker count.
func (g *Graph) FinalizeWorkers(workers int) {
	if g.finalized {
		return
	}
	// Sort and dedup every row; rows are independent, so large graphs fan
	// the pass across cores (per-vertex work only — deterministic).
	workers = ResolveWorkers(workers, g.n)
	if g.n < 1024 {
		workers = 1
	}
	ParallelBlocks(g.n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			a := g.adj[v]
			if len(a) <= 1 {
				continue
			}
			slices.Sort(a)
			// Compact duplicates in place (AddEdgeLazy may repeat entries).
			k := 1
			for i := 1; i < len(a); i++ {
				if a[i] != a[i-1] {
					a[k] = a[i]
					k++
				}
			}
			g.adj[v] = a[:k]
		}
	})
	total := 0
	for v := 0; v < g.n; v++ {
		total += len(g.adj[v])
	}
	if total > math.MaxInt32 {
		// The CSR layout indexes targets with int32 offsets; refuse loudly
		// instead of wrapping silently (such a graph needs > 8 GB of
		// targets alone, far outside this library's design envelope).
		panic(fmt.Sprintf("graph: Finalize: %d adjacency entries overflow the int32 CSR offsets", total))
	}
	off := make([]int32, g.n+1)
	total = 0
	for v := 0; v < g.n; v++ {
		off[v] = int32(total)
		total += len(g.adj[v])
	}
	off[g.n] = int32(total)
	tgt := make([]int32, total)
	ParallelBlocks(g.n, workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			copy(tgt[off[v]:], g.adj[v])
		}
	})
	g.off, g.tgt = off, tgt
	g.m = total / 2
	g.adj = nil
	g.finalized = true
}

// Finalized reports whether Finalize has been called since the last mutation.
func (g *Graph) Finalized() bool { return g.finalized }

// HasEdge reports whether the edge {u, v} is present.  On a finalized graph
// this is a binary search over the shorter CSR row.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	if !g.finalized {
		return g.hasEdgeSlow(u, v)
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	row := g.tgt[g.off[u]:g.off[u+1]]
	w := int32(v)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == w
}

// Neighbors returns the adjacency list of v.  The returned slice is owned by
// the graph and must not be modified.  On a finalized graph it is a slice of
// the shared CSR targets array, sorted increasingly.
func (g *Graph) Neighbors(v int) []int32 {
	if g.finalized {
		return g.tgt[g.off[v]:g.off[v+1]]
	}
	return g.adj[v]
}

// NeighborsInts returns a fresh []int copy of the adjacency list of v.
func (g *Graph) NeighborsInts(v int) []int {
	nb := g.Neighbors(v)
	out := make([]int, len(nb))
	for i, w := range nb {
		out[i] = int(w)
	}
	return out
}

// Edges returns all edges as pairs {u, v} with u < v, sorted
// lexicographically.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	if !g.finalized {
		// Finalized CSR rows are sorted, so the sweep above is already
		// lexicographic; unsorted construction-side lists are not.
		sort.Slice(edges, func(i, j int) bool {
			if edges[i][0] != edges[j][0] {
				return edges[i][0] < edges[j][0]
			}
			return edges[i][1] < edges[j][1]
		})
	}
	return edges
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, m: g.m, finalized: g.finalized}
	if g.finalized {
		c.off = append([]int32(nil), g.off...)
		c.tgt = append([]int32(nil), g.tgt...)
		return c
	}
	c.adj = make([][]int32, g.n)
	for v := 0; v < g.n; v++ {
		c.adj[v] = append([]int32(nil), g.adj[v]...)
	}
	return c
}

// InducedSubgraph returns the subgraph induced by the vertex set verts,
// together with the mapping orig such that vertex i of the subgraph is
// vertex orig[i] of g.  Duplicate vertices in verts are ignored.
func (g *Graph) InducedSubgraph(verts []int) (sub *Graph, orig []int) {
	idx := make(map[int]int, len(verts))
	orig = make([]int, 0, len(verts))
	for _, v := range verts {
		if _, ok := idx[v]; ok {
			continue
		}
		idx[v] = len(orig)
		orig = append(orig, v)
	}
	sub = New(len(orig))
	for i, v := range orig {
		for _, w := range g.Neighbors(v) {
			if j, ok := idx[int(w)]; ok && i < j {
				sub.adj[i] = append(sub.adj[i], int32(j))
				sub.adj[j] = append(sub.adj[j], int32(i))
				sub.m++
			}
		}
	}
	sub.Finalize()
	return sub, orig
}

// ContractPartition contracts each part of the given partition to a single
// vertex and returns the resulting simple minor (parallel edges collapsed,
// loops dropped).  part[v] must give the part index of vertex v in
// [0, nparts).  This implements the minor construction used by Lemma 15 of
// the paper (contracting the balls B(v) of a D-partition).
func (g *Graph) ContractPartition(part []int, nparts int) *Graph {
	h := New(nparts)
	for u := 0; u < g.n; u++ {
		pu := part[u]
		for _, w := range g.Neighbors(u) {
			v := int(w)
			if u >= v {
				continue
			}
			if pv := part[v]; pu != pv {
				// Parallel edges collapse during Finalize.
				_ = h.AddEdgeLazy(pu, pv)
			}
		}
	}
	h.Finalize()
	return h
}

// String returns a short human-readable summary, e.g. "Graph(n=10, m=15)".
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.m)
}

// Validate checks internal invariants (symmetry, no self-loops, no duplicate
// entries, CSR row ordering, edge count consistency).  It is used by tests
// and the fuzzing / property-based suites.
func (g *Graph) Validate() error {
	count := 0
	for v := 0; v < g.n; v++ {
		nb := g.Neighbors(v)
		seen := make(map[int32]bool, len(nb))
		for i, w := range nb {
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if w < 0 || int(w) >= g.n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			if seen[w] {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", v, w)
			}
			seen[w] = true
			if g.finalized && i > 0 && nb[i-1] >= w {
				return fmt.Errorf("graph: CSR row of %d not sorted at %d", v, i)
			}
			if !g.hasEdgeIn(int(w), v) {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, w)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count mismatch: m=%d but %d adjacency entries", g.m, count)
	}
	return nil
}

// hasEdgeIn reports whether v appears in the adjacency list of u by linear
// scan; Validate uses it on non-finalized graphs where duplicate entries may
// make HasEdge's assumptions unreliable.
func (g *Graph) hasEdgeIn(u, v int) bool {
	for _, x := range g.Neighbors(u) {
		if int(x) == v {
			return true
		}
	}
	return false
}
