package distalgo

import (
	"fmt"
	"sort"

	"bedom/internal/connect"
	"bedom/internal/dist"
	"bedom/internal/domset"
	"bedom/internal/graph"
)

// localConnectNode implements the LOCAL-model connector of Lemma 16 /
// Theorem 17.  Phase 1 (2r+1 rounds): every vertex gathers the records of
// all vertices within distance 2r+1, including their dominator flags.
// Phase 2: every dominator v locally computes its ball B(v) of the
// D-partition, its neighbors in the contracted minor H(D) and the canonical
// connecting path to each such neighbor, and then notifies the vertices on
// its half of every path (r forwarding rounds) that they belong to the
// connected dominating set D'.  Total: 3r+1 rounds.
type localConnectNode struct {
	router // onPath: this vertex belongs to D'
	r      int
	inD    bool
	gather knowledge
	rounds int
}

func (l *localConnectNode) Init(ctx *dist.Context) {
	l.onPath = l.inD
	l.gather.addSelf(int(l.id), l.inD, ctx)
	l.gather.send(ctx)
}

// Round reads knowledge records until the gathering ends (round 2r+1) and
// tokens after that.
func (l *localConnectNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	l.rounds++
	switch gatherT := 2*l.r + 1; {
	case l.rounds < gatherT:
		// Keep flooding newly learned records.
		for _, in := range inbox {
			l.gather.absorb(in.Words)
		}
		l.gather.send(ctx)
	case l.rounds == gatherT:
		// Knowledge of the (2r+1)-ball is complete; dominators compute their
		// connection paths and emit the first notification tokens.
		for _, in := range inbox {
			l.gather.absorb(in.Words)
		}
		if l.inD {
			l.send(ctx, l.planTokens())
		}
	default:
		// Forwarding phase.
		l.forward(ctx, inbox)
	}
}

// planTokens performs the per-dominator local computation of Lemma 16 and
// returns the notification tokens for this dominator's halves of the
// canonical paths to its H(D)-neighbors.
func (l *localConnectNode) planTokens() [][]int32 {
	lg, toGlobal, toLocal, flags := localView(l.gather.known)
	selfLocal := toLocal[int(l.id)]
	// Dominators visible in the local view.
	var localD []int
	for i, f := range flags {
		if f {
			localD = append(localD, i)
		}
	}
	idxOf := make(map[int]int, len(localD))
	for i, v := range localD {
		idxOf[v] = i
	}
	// Lexicographic comparisons use the *global* ids.
	ids := make([]int, lg.N())
	copy(ids, toGlobal)
	part := connect.DPartition(lg, localD, l.r, ids)
	selfIdx := idxOf[selfLocal]

	// H(D)-neighbors of this dominator: owners of vertices adjacent to B(v).
	hNeighbors := map[int]bool{}
	for _, e := range lg.Edges() {
		a, b := e[0], e[1]
		pa, pb := part[a], part[b]
		if pa == -1 || pb == -1 || pa == pb {
			continue
		}
		if pa == selfIdx {
			hNeighbors[localD[pb]] = true
		}
		if pb == selfIdx {
			hNeighbors[localD[pa]] = true
		}
	}
	var out [][]int32
	neighList := make([]int, 0, len(hNeighbors))
	for u := range hNeighbors {
		neighList = append(neighList, u)
	}
	sort.Ints(neighList)
	wk := graph.NewWalker(lg)
	for _, uLocal := range neighList {
		path := connect.CanonicalPath(wk, selfLocal, uLocal, 2*l.r+1, ids)
		if len(path) == 0 {
			continue
		}
		// Translate to global ids.
		gp := make([]int32, len(path))
		for i, x := range path {
			gp[i] = int32(toGlobal[x])
		}
		// The endpoint with the smaller global id covers the first half of
		// the canonical path; the other endpoint covers the rest (both ends
		// compute the same path, so the halves partition it).
		half := l.myHalf(gp)
		if len(half) >= 2 {
			out = append(out, half)
		}
	}
	return out
}

// myHalf returns the sub-path this dominator is responsible for, starting at
// the dominator itself (so it can be routed as a token).
func (l *localConnectNode) myHalf(gp []int32) []int32 {
	lo, hi := gp[0], gp[len(gp)-1]
	mid := (len(gp) - 1) / 2
	if l.id == lo {
		return gp[:mid+1]
	}
	if l.id == hi {
		// Reverse the tail so it starts at this dominator.
		tail := gp[mid+1:]
		rev := make([]int32, len(tail))
		for i, x := range tail {
			rev[len(tail)-1-i] = x
		}
		return rev
	}
	return nil
}

func (l *localConnectNode) Done() bool { return l.rounds >= 3*l.r+1 }

// LocalConnectorResult is the outcome of the LOCAL-model connector.
type LocalConnectorResult struct {
	// R is the domination radius of the input set.
	R int
	// Set is the connected distance-r dominating set D' ⊇ D, sorted.
	Set []int
	// Stats is the simulator cost (3r+1 rounds plus quiescence detection).
	Stats dist.Stats
}

// RunLocalConnector executes Lemma 16 in the LOCAL model: given a graph and
// a distance-r dominating set D (as membership flags or a vertex list), it
// returns a connected distance-r dominating set of size at most
// 2r·d·|D| where d bounds the edge density of depth-r minors of the class
// (d < 3 for planar graphs, giving the factor 6 of the paper for r = 1).
func RunLocalConnector(g *graph.Graph, D []int, r int, opts dist.Options) (*LocalConnectorResult, error) {
	if err := atLeastOne("radius", r); err != nil {
		return nil, err
	}
	inD := make([]bool, g.N())
	for _, v := range D {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("distalgo: dominating set vertex %d out of range", v)
		}
		inD[v] = true
	}
	if !domset.Check(g, D, r) {
		return nil, fmt.Errorf("distalgo: D is not a distance-%d dominating set", r)
	}
	p := &pipeline{g: g, model: dist.Local, opts: opts}
	defer p.release()
	nodes := make([]localConnectNode, g.N())
	err := p.run("local-connect", func(v int) dist.Node {
		nodes[v] = localConnectNode{router: router{id: int32(v)}, r: r, inD: inD[v]}
		return &nodes[v]
	})
	if err != nil {
		return nil, err
	}
	var set []int
	for v := range nodes {
		if nodes[v].onPath {
			set = append(set, v)
		}
	}
	return &LocalConnectorResult{R: r, Set: set, Stats: p.Stats}, nil
}
