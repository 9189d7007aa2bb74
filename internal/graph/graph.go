// Package graph provides the undirected simple-graph substrate used by the
// whole library: graphs built once and then read as a sorted CSR layout,
// Dynamic (the one way to change a topology), the one bounded breadth-first
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
	"sync/atomic"
)

// Graph is an undirected simple graph with one lifecycle.  New, AddEdge and
// AddEdgeLazy build it; Finalize packs it into its canonical
// compressed-sparse-row (CSR) layout — one flat offsets array and one flat
// targets array, every row sorted increasingly — and from then on it is
// read-only.  The same edge set always packs to the same arrays, whatever
// order the edges were added in, so no answer can depend on how a graph was
// built.  Every reader (Degree, Neighbors, HasEdge, Edges, the walker and
// everything built on them) reads the CSR and panics on a graph that has not
// been finalized; AddEdge and AddEdgeLazy on a finalized graph return
// ErrFinalized.  A finalized graph may be shared by any number of
// goroutines.  Dynamic is the only way to change a topology: it applies
// deltas to an overlay and hands out fresh finalized snapshots.
//
// FromEdges, FromCSR, ReadEdgeList and every generator in internal/gen
// return finalized graphs.
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
	// degeneracy is Degeneracy's value plus one, 0 until its first call.
	degeneracy atomic.Int32
}

// Common construction errors.
var (
	// ErrVertexRange is returned when a vertex index is outside [0, n).
	ErrVertexRange = errors.New("graph: vertex index out of range")
	// ErrSelfLoop is returned when an edge {v, v} is added.
	ErrSelfLoop = errors.New("graph: self-loops are not allowed")
	// ErrFinalized is returned when an edge is added to a finalized graph;
	// use Dynamic to change a topology.
	ErrFinalized = errors.New("graph: graph is finalized and read-only")
)

// New returns an empty graph on n vertices (and no edges), ready for
// AddEdge and AddEdgeLazy.  Call Finalize before reading it.
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
	if !g.finalized {
		notFinalized("Degree")
	}
	return int(g.off[v+1] - g.off[v])
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

// checkEdge validates the endpoints of {u, v} and that g is still being
// built.
func (g *Graph) checkEdge(u, v int) error {
	if g.finalized {
		return ErrFinalized
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	}
	return nil
}

// AddEdge inserts the undirected edge {u, v} into a graph under
// construction.  Adding an existing edge is a no-op, found by a linear scan
// of the shorter of the two lists.  On a finalized graph it returns
// ErrFinalized.
func (g *Graph) AddEdge(u, v int) error {
	if err := g.checkEdge(u, v); err != nil {
		return err
	}
	a, w := g.adj[u], int32(v)
	if len(g.adj[v]) < len(a) {
		a, w = g.adj[v], int32(u)
	}
	if slices.Contains(a, w) {
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
// On a finalized graph it returns ErrFinalized.
func (g *Graph) AddEdgeLazy(u, v int) error {
	if err := g.checkEdge(u, v); err != nil {
		return err
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
	return nil
}

// Finalize ends construction and packs the graph into its CSR layout: every
// adjacency list is sorted increasingly, duplicate entries (from
// AddEdgeLazy) are removed, the exact edge count is recomputed, and the
// lists are packed into one flat targets array indexed by a flat offsets
// array.  The layout depends only on the edge set.  From then on the graph
// is read-only.  Finalize is idempotent.
func (g *Graph) Finalize() {
	if g.finalized {
		return
	}
	// Sort and dedup every row; rows are independent, so large graphs fan
	// the pass across cores (per-vertex work only — deterministic).
	workers := ResolveWorkers(0, g.n)
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

// Finalized reports whether Finalize has been called, that is, whether the
// graph can be read.
func (g *Graph) Finalized() bool { return g.finalized }

// notFinalized is the panic of every reader called on a graph under
// construction.
func notFinalized(op string) {
	panic("graph." + op + ": graph is not finalized; call Finalize first")
}

// HasEdge reports whether the edge {u, v} is present: a binary search over
// the shorter CSR row.
func (g *Graph) HasEdge(u, v int) bool {
	if !g.finalized {
		notFinalized("HasEdge")
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
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

// Neighbors returns the neighbors of v in increasing order: a window of the
// graph's CSR targets array, which must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	if !g.finalized {
		notFinalized("Neighbors")
	}
	return g.tgt[g.off[v]:g.off[v+1]]
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
// lexicographically (the CSR rows are sorted, so one sweep suffices).
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
	return edges
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

// Validate checks the invariants of the CSR layout (strictly sorted in-range
// rows, no self-loops, symmetric adjacency) and that the edge count matches
// it.  It is used by tests and the fuzzing / property-based suites.
func (g *Graph) Validate() error {
	off, tgt := g.CSR()
	if _, err := FromCSR(off, tgt); err != nil {
		return err
	}
	if 2*g.m != len(tgt) {
		return fmt.Errorf("graph: edge count mismatch: m=%d but %d adjacency entries", g.m, len(tgt))
	}
	return nil
}
