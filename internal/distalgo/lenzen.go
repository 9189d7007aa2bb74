package distalgo

import (
	"bedom/internal/dist"
	"bedom/internal/graph"
)

// This file implements the constant-round LOCAL-model dominating set
// approximation of Lenzen, Pignolet and Wattenhofer for planar graphs
// ([36] in the paper), which Theorem 17 combines with the LOCAL connector to
// obtain a constant-factor *connected* dominating set on planar graphs in a
// constant number of rounds.
//
// The algorithm has two steps:
//
//  1. A := { v : no two other vertices u, w satisfy N(v)\{u,w} ⊆ N(u)∪N(w) }.
//     On planar graphs |A| = O(OPT).
//  2. Every vertex not dominated by A selects, among its closed neighbors,
//     one that covers the largest number of vertices not dominated by A
//     (ties broken by smaller id); the selected vertices join the set.
//
// Both steps only require constant-radius neighborhood information, so the
// distributed version runs in a constant number of LOCAL rounds.

// LenzenSetA computes step 1 sequentially: membership in the set A.
func LenzenSetA(g *graph.Graph) []bool {
	n := g.N()
	inA := make([]bool, n)
	wk := graph.NewWalker(g)
	for v := 0; v < n; v++ {
		inA[v] = !coverableByTwo(wk, v)
	}
	return inA
}

// coverableByTwo reports whether there exist two vertices u, w (both ≠ v)
// with N(v) \ {u, w} ⊆ N(u) ∪ N(w), in the graph wk walks.
func coverableByTwo(wk *graph.Walker, v int) bool {
	g := wk.Graph()
	nv := g.Neighbors(v)
	if len(nv) <= 2 {
		// Two vertices can always absorb a neighborhood of size ≤ 2.
		return true
	}
	// Any useful candidate either equals a neighbor of v (so that it is
	// excluded from the requirement) or is adjacent to a vertex of N(v).
	// Fix x0 = the first neighbor: one of the two candidates must cover or
	// equal x0, so it comes from N[x0]; the second candidate ranges over the
	// same candidate pool around v, N²[v] (all vertices within distance 2).
	x0 := nv[0]
	firstCands := append([]int32{x0}, g.Neighbors(int(x0))...)
	pool := wk.Walk(v, 2)
	for _, u := range firstCands {
		if int(u) == v {
			continue
		}
		for _, w := range pool {
			if int(w) == v {
				continue
			}
			if coversAllBut(g, nv, u, w) {
				return true
			}
		}
	}
	return false
}

// coversAllBut reports whether N(v)\{u,w} ⊆ N(u) ∪ N(w), given nv = N(v).
func coversAllBut(g *graph.Graph, nv []int32, u, w int32) bool {
	for _, x := range nv {
		if x == u || x == w {
			continue
		}
		if !g.HasEdge(int(x), int(u)) && !g.HasEdge(int(x), int(w)) {
			return false
		}
	}
	return true
}

// LenzenSequential is the sequential reference of the full two-step
// algorithm; the distributed version must produce exactly the same set.
func LenzenSequential(g *graph.Graph) []int {
	n := g.N()
	inA := LenzenSetA(g)
	dominatedByA := make([]bool, n)
	for v := 0; v < n; v++ {
		if inA[v] {
			dominatedByA[v] = true
			for _, u := range g.Neighbors(v) {
				dominatedByA[int(u)] = true
			}
		}
	}
	// White count of u: vertices in N[u] not dominated by A.
	white := make([]int, n)
	for u := 0; u < n; u++ {
		c := 0
		if !dominatedByA[u] {
			c++
		}
		for _, x := range g.Neighbors(u) {
			if !dominatedByA[int(x)] {
				c++
			}
		}
		white[u] = c
	}
	chosen := make([]bool, n)
	for v := 0; v < n; v++ {
		if dominatedByA[v] {
			continue
		}
		best := v
		for _, u := range g.NeighborsInts(v) {
			if white[u] > white[best] || (white[u] == white[best] && u < best) {
				best = u
			}
		}
		chosen[best] = true
	}
	var D []int
	for v := 0; v < n; v++ {
		if inA[v] || chosen[v] {
			D = append(D, v)
		}
	}
	return D
}

// lenzenNode is the distributed implementation.  Round structure:
//
//	rounds 1..2   gather the records of all vertices within distance 2
//	round  3      compute A locally and broadcast membership
//	round  4      broadcast "dominated by A" status
//	round  5      broadcast the white count
//	round  6      undominated vertices broadcast their chosen dominator
//	round  7      chosen vertices notice they were selected
type lenzenNode struct {
	id     int
	gather knowledge
	rounds int

	inA          bool
	dominatedByA bool
	neighborDomA map[int]bool
	white        map[int]int
	chosen       bool
	selfWhite    int
}

func (l *lenzenNode) Init(ctx *dist.Context) {
	l.gather.addSelf(l.id, false, ctx)
	l.neighborDomA = make(map[int]bool)
	l.white = make(map[int]int)
	l.gather.send(ctx)
}

// Round reads knowledge records in rounds 1 and 2 and one word per message
// after that.
func (l *lenzenNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	l.rounds++
	switch l.rounds {
	case 1:
		for _, in := range inbox {
			l.gather.absorb(in.Words)
		}
		l.gather.send(ctx)
	case 2:
		for _, in := range inbox {
			l.gather.absorb(in.Words)
		}
		// Knowledge of the 2-ball is complete: decide membership in A.
		lg, _, toLocal, _ := localView(l.gather.known)
		l.inA = !coverableByTwo(graph.NewWalker(lg), toLocal[l.id])
		ctx.Broadcast([]int32{boolToWord(l.inA)})
	case 3:
		domA := l.inA
		for _, in := range inbox {
			if in.Words[0] == 1 {
				domA = true
			}
		}
		l.dominatedByA = domA
		ctx.Broadcast([]int32{boolToWord(l.dominatedByA)})
	case 4:
		for _, in := range inbox {
			l.neighborDomA[in.From] = in.Words[0] == 1
		}
		// White count over the closed neighborhood.
		c := 0
		if !l.dominatedByA {
			c++
		}
		for _, u := range ctx.Neighbors() {
			if !l.neighborDomA[int(u)] {
				c++
			}
		}
		l.selfWhite = c
		ctx.Broadcast([]int32{int32(c)})
	case 5:
		for _, in := range inbox {
			l.white[in.From] = int(in.Words[0])
		}
		if !l.dominatedByA {
			best := l.id
			bestWhite := l.selfWhite
			for _, w := range ctx.Neighbors() {
				u := int(w)
				if l.white[u] > bestWhite || (l.white[u] == bestWhite && u < best) {
					best = u
					bestWhite = l.white[u]
				}
			}
			if best == l.id {
				l.chosen = true
			} else {
				ctx.Broadcast([]int32{int32(best)})
			}
		}
	case 6:
		for _, in := range inbox {
			if int(in.Words[0]) == l.id {
				l.chosen = true
			}
		}
	}
}

func (l *lenzenNode) Done() bool { return l.rounds >= 6 }

func boolToWord(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// LenzenResult is the outcome of the distributed planar MDS approximation.
type LenzenResult struct {
	// Set is the computed dominating set (r = 1), sorted.
	Set []int
	// SizeA is the size of the first-phase set A.
	SizeA int
	// Stats is the simulator cost (a constant number of LOCAL rounds).
	Stats dist.Stats
}

// RunLenzen executes the Lenzen–Pignolet–Wattenhofer algorithm in the LOCAL
// model.  It is intended for planar graphs (where it guarantees a constant
// approximation factor) but produces a valid dominating set on every graph.
func RunLenzen(g *graph.Graph, opts dist.Options) (*LenzenResult, error) {
	p := &pipeline{g: g, model: dist.Local, opts: opts}
	defer p.release()
	nodes := make([]lenzenNode, g.N())
	err := p.run("lenzen", func(v int) dist.Node {
		nodes[v] = lenzenNode{id: v}
		return &nodes[v]
	})
	if err != nil {
		return nil, err
	}
	res := &LenzenResult{Stats: p.Stats}
	for v, nd := range nodes {
		if nd.inA || nd.chosen {
			res.Set = append(res.Set, v)
		}
		if nd.inA {
			res.SizeA++
		}
	}
	return res, nil
}
