// Package connect turns distance-r dominating sets into *connected*
// distance-r dominating sets, implementing the sequential reference versions
// of the paper's §5: the weak-reachability closure of Corollary 13 (used by
// the CONGEST_BC algorithm of Theorem 10), the D-partition into balls and the
// contracted depth-r minor H(D) of Lemmas 14–15, and the LOCAL-model
// connector of Lemma 16 / Theorem 17.
package connect

import (
	"fmt"
	"sort"

	"bedom/internal/domset"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// CheckConnected reports whether D is a connected distance-r dominating set
// of g: it must distance-r dominate g (domset.Check) and induce a connected
// subgraph.
func CheckConnected(g *graph.Graph, D []int, r int) bool {
	return domset.Check(g, D, r) && g.IsConnectedSubset(D)
}

// Closure implements Corollary 13: given an order L (intended to witness a
// small wcol_{2r+1}) and a distance-r dominating set D, it returns
//
//	D' = D ∪ ⋃_{v ∈ D} ⋃_{w ∈ WReach_{2r+1}[G,L,v]} V(P_{v,w})
//
// where P_{v,w} is the weak-reachability witness path.  On a connected graph
// D' is a connected distance-r dominating set of size at most
// wcol_{2r+1}(G,L)·(2r+1)·|D| + |D|.  Callers that hold the radius-(2r+1)
// witnesses already use ClosureOf.
func Closure(g *graph.Graph, o *order.Order, D []int, r int) []int {
	return ClosureOf(order.WReachWitnesses(g, o, 2*r+1, -1, 0), D)
}

// ClosureOf is Closure on precomputed witnesses: wits must hold the weak
// (2r+1)-reachability witnesses of the order D was computed with.  The
// result is sorted.
func ClosureOf(wits *order.Witnesses, D []int) []int {
	in := make([]bool, wits.Sets.Len())
	var path []int
	for _, v := range D {
		in[v] = true
		for j := range wits.Sets.Of(v) {
			path = wits.AppendPath(path[:0], v, j)
			for _, x := range path {
				in[x] = true
			}
		}
	}
	out := make([]int, 0, len(D))
	for v, ok := range in {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// DPartition computes the D-partition of Lemma 14: every vertex w is assigned
// to the dominator v ∈ D whose lexicographically shortest path P(v, w) is
// smallest (shorter paths first; ties by the id sequence of the path read
// from the dominator's side, then by dominator id).  ids gives the network
// identifier of each vertex used for the lexicographic comparison; pass nil
// to use the vertex indices themselves.
//
// It returns part[w] = index into D of the ball containing w.  Vertices
// farther than r from every dominator (only possible when D is not a
// distance-r dominating set) get part -1.
func DPartition(g *graph.Graph, D []int, r int, ids []int) []int {
	return partition(graph.NewWalker(g), D, r, identityIfNil(ids, g.N()))
}

// partition is DPartition on the graph wk walks, with one bounded walk per
// vertex.
func partition(wk *graph.Walker, D []int, r int, ids []int) []int {
	part := make([]int, wk.Graph().N())
	for w := range part {
		part[w] = bestDominatorFor(wk, D, r, ids, w)
	}
	return part
}

// identityIfNil returns ids, or the identity ids of n vertices when ids is
// nil.
func identityIfNil(ids []int, n int) []int {
	if ids != nil {
		return ids
	}
	ids = make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// bestDominatorFor returns the index into D of the dominator owning w under
// the lexicographic rule of Lemma 14, or -1 if no dominator is within
// distance r.
func bestDominatorFor(wk *graph.Walker, D []int, r int, ids []int, w int) int {
	wk.Walk(w, r)
	bestIdx := -1
	var bestPath []int
	for i, v := range D {
		dv := wk.Depth(v)
		if dv == graph.Unreached {
			continue
		}
		if bestIdx != -1 && dv > len(bestPath)-1 {
			continue
		}
		p := lexMinPath(wk, v, ids)
		if bestIdx == -1 || pathLess(p, bestPath, ids) ||
			(!pathLess(bestPath, p, ids) && ids[v] < ids[D[bestIdx]]) {
			bestIdx = i
			bestPath = p
		}
	}
	return bestIdx
}

// lexMinPath returns the lexicographically smallest shortest path from v to
// the source of the walker's last walk, which must have reached v: the
// path is built from the v side, at every step taking the neighbor one step
// closer to the source with the smallest id.
func lexMinPath(wk *graph.Walker, v int, ids []int) []int {
	g := wk.Graph()
	path := []int{v}
	for cur := v; wk.Depth(cur) > 0; {
		next := -1
		for _, nb := range g.Neighbors(cur) {
			u := int(nb)
			if wk.Depth(u) != wk.Depth(cur)-1 {
				continue
			}
			if next == -1 || ids[u] < ids[next] {
				next = u
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// pathLess reports whether path a is lexicographically smaller than path b
// under the rule of §5: shorter paths first, then the id sequences compared
// entry by entry.
func pathLess(a, b []int, ids []int) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if ids[a[i]] != ids[b[i]] {
			return ids[a[i]] < ids[b[i]]
		}
	}
	return false
}

// VerifyPartition checks the structural claims of Lemma 14: the parts form a
// partition of V(G) (when D distance-r dominates G), every dominator lies in
// its own part, and every part induces a subgraph in which its dominator
// reaches all members within r steps.
func VerifyPartition(g *graph.Graph, D []int, r int, part []int) error {
	members := make([][]int, len(D))
	for w, p := range part {
		if p < 0 || p >= len(D) {
			return fmt.Errorf("connect: vertex %d not assigned to any ball", w)
		}
		members[p] = append(members[p], w)
	}
	wk := graph.NewWalker(g)
	for i, v := range D {
		if len(members[i]) == 0 {
			continue
		}
		if part[v] != i {
			return fmt.Errorf("connect: dominator %d not inside its own ball", v)
		}
		wk.SetMembers(members[i])
		if reached := len(wk.WalkMembers(v, r)); reached < len(members[i]) {
			return fmt.Errorf("connect: ball of dominator %d: only %d of its %d members are within r=%d inside the ball",
				v, reached, len(members[i]), r)
		}
	}
	return nil
}

// MinorFromPartition contracts the parts of a D-partition and returns the
// resulting depth-r minor H(D) of Lemma 15 (vertex i of the minor is the
// ball of dominator D[i]).
func MinorFromPartition(g *graph.Graph, nparts int, part []int) *graph.Graph {
	return g.ContractPartition(part, nparts)
}

// LocalConnector is the sequential reference implementation of Lemma 16: it
// computes the D-partition, the contracted minor H(D) and, for every edge
// {u, v} of H(D), the lexicographically smallest shortest path between the
// two dominators (of length at most 2r+1), and returns D together with all
// path vertices.  On a connected graph the result is a connected distance-r
// dominating set of size at most 2r·|E(H(D))| + |D|.
//
// The distributed LOCAL-model version in internal/distalgo runs the very
// same per-dominator computation from (2r+1)-neighborhood snapshots in 3r+1
// rounds; a test asserts both produce identical sets.
func LocalConnector(g *graph.Graph, D []int, r int, ids []int) []int {
	if len(D) == 0 {
		return nil
	}
	ids = identityIfNil(ids, g.N())
	wk := graph.NewWalker(g)
	part := partition(wk, D, r, ids)
	h := MinorFromPartition(g, len(D), part)
	result := make(map[int]bool)
	for _, v := range D {
		result[v] = true
	}
	for _, e := range h.Edges() {
		u, v := D[e[0]], D[e[1]]
		for _, x := range CanonicalPath(wk, u, v, 2*r+1, ids) {
			result[x] = true
		}
	}
	return sortedKeys(result)
}

// CanonicalPath returns the canonical connecting path between two vertices a
// and b of the graph wk walks, used by Lemma 16: the lexicographically
// smallest shortest path, read from the endpoint with the smaller id.  Both
// endpoints compute exactly the same path from their local views, which is
// what makes the distributed LOCAL connector consistent.  It returns nil
// when the two vertices are farther apart than maxLen.  ids nil means the
// vertex indices.
func CanonicalPath(wk *graph.Walker, a, b, maxLen int, ids []int) []int {
	ids = identityIfNil(ids, wk.Graph().N())
	from, to := a, b
	if ids[b] < ids[a] {
		from, to = b, a
	}
	wk.Walk(to, maxLen)
	if !wk.Reached(from) {
		return nil
	}
	return lexMinPath(wk, from, ids)
}

// MinorEdgeDensity returns |E(H)| / |V(H)| of a graph H, the quantity d that
// bounds the blow-up factor 2r·d of Lemma 16 (e.g. d < 3 for planar graphs).
func MinorEdgeDensity(h *graph.Graph) float64 {
	if h.N() == 0 {
		return 0
	}
	return float64(h.M()) / float64(h.N())
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
