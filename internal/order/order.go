// Package order implements linear orders on vertex sets and the generalized
// colouring numbers that underpin the paper's algorithms: weak r-reachability
// sets WReach_r[G, L, v], the measured weak r-colouring number wcol_r(G, L),
// and order-construction heuristics (degeneracy ordering and distance-
// truncated transitive–fraternal augmentations à la Nešetřil–Ossona de
// Mendez / Dvořák, Theorems 1–3 of the paper).
//
// The library convention for a linear order L is: "small" vertices are the
// ones that end up in dominating sets and cover centers; each vertex should
// have a small weak reachability set consisting of vertices ≤_L itself.
package order

import (
	"errors"
	"fmt"
	"slices"

	"bedom/internal/graph"
)

// Order is a linear order L on the vertices 0..n-1 of a graph, stored both as
// a permutation (position → vertex) and its inverse (vertex → position) so
// that comparisons u <_L v take O(1).
type Order struct {
	perm []int // perm[i] = the vertex at position i (position 0 is the least)
	pos  []int // pos[v] = position of vertex v
}

// ErrInvalidOrder is returned when a permutation or position array does not
// describe a bijection on 0..n-1.
var ErrInvalidOrder = errors.New("order: not a permutation of the vertex set")

// FromPermutation builds an Order from perm, where perm[i] is the vertex at
// position i (least first).
func FromPermutation(perm []int) (*Order, error) {
	n := len(perm)
	pos := make([]int, n)
	seen := make([]bool, n)
	for i, v := range perm {
		if v < 0 || v >= n || seen[v] {
			return nil, fmt.Errorf("%w: bad entry perm[%d]=%d", ErrInvalidOrder, i, v)
		}
		seen[v] = true
		pos[v] = i
	}
	return &Order{perm: append([]int(nil), perm...), pos: pos}, nil
}

// FromPositions builds an Order from pos, where pos[v] is the position of
// vertex v.
func FromPositions(pos []int) (*Order, error) {
	n := len(pos)
	perm := make([]int, n)
	seen := make([]bool, n)
	for v, p := range pos {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("%w: bad entry pos[%d]=%d", ErrInvalidOrder, v, p)
		}
		seen[p] = true
		perm[p] = v
	}
	return &Order{perm: perm, pos: append([]int(nil), pos...)}, nil
}

// Identity returns the order in which vertex v has position v.
func Identity(n int) *Order {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	o, _ := FromPermutation(perm)
	return o
}

// N returns the number of ordered vertices.
func (o *Order) N() int { return len(o.perm) }

// Pos returns the position of vertex v (0 is least).
func (o *Order) Pos(v int) int { return o.pos[v] }

// At returns the vertex at position i.
func (o *Order) At(i int) int { return o.perm[i] }

// Less reports whether u <_L v.
func (o *Order) Less(u, v int) bool { return o.pos[u] < o.pos[v] }

// Min returns the L-minimum of a non-empty set of vertices.
func (o *Order) Min(verts []int) int {
	best := verts[0]
	for _, v := range verts[1:] {
		if o.pos[v] < o.pos[best] {
			best = v
		}
	}
	return best
}

// Positions returns a copy of the vertex → position array.
func (o *Order) Positions() []int { return append([]int(nil), o.pos...) }

// Permutation returns a copy of the position → vertex array.
func (o *Order) Permutation() []int { return append([]int(nil), o.perm...) }

// FromDegeneracy returns the order induced by a degeneracy (Matula–Beck)
// ordering of g, arranged so that every vertex has at most degeneracy(g)
// neighbors smaller than itself.  It also returns the degeneracy.
func FromDegeneracy(g *graph.Graph) (*Order, int) {
	// DegeneracyOrder guarantees each vertex has ≤ k neighbors *later* in
	// its ordering; reversed in place it becomes L, where those neighbors
	// are *smaller*.
	perm, k := g.DegeneracyOrder()
	slices.Reverse(perm)
	pos := make([]int, len(perm))
	for i, v := range perm {
		pos[v] = i
	}
	return &Order{perm: perm, pos: pos}, k
}

// SmallerNeighborsBound returns max over vertices v of the number of
// neighbors of v that are smaller than v w.r.t. o — the "back-degree" of the
// order, which equals wcol_1(G, L).
func SmallerNeighborsBound(g *graph.Graph, o *Order) int {
	maxBack := 0
	for v := 0; v < g.N(); v++ {
		back := 0
		for _, w := range g.Neighbors(v) {
			if o.Less(int(w), v) {
				back++
			}
		}
		if back > maxBack {
			maxBack = back
		}
	}
	return maxBack
}
