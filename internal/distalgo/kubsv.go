package distalgo

import (
	"sort"

	"bedom/internal/dist"
	"bedom/internal/graph"
)

// This file implements a constant-round distributed distance-r dominating
// set in the spirit of Kublenz, Siebertz and Vigny (arXiv 2012.02701): on
// classes of bounded expansion a constant number of "elect the locally
// densest ball, then let leftover vertices nominate their best cover"
// rounds yields a constant-factor approximation, without computing a
// weak-reachability order first.  The variant implemented here runs two
// phases:
//
//  1. Election.  Every vertex v computes c(v) = |B_r(v)| and joins the set
//     iff (c(v), -v) is maximal within B_2r(v) — the local-maximum rule
//     makes the phase symmetry-free and deterministic.  Elected balls are
//     pairwise > 2r apart, so on any graph the elected vertices are a
//     distance-2r scattered set (a lower-bound certificate, not just a
//     heuristic).
//  2. Cleanup.  Let U be the vertices not covered by the elected set.  Every
//     w computes the demand c'(w) = |B_r(w) ∩ U| (one snapshot, not updated
//     during the phase), and every u ∈ U nominates the vertex of B_r(u)
//     maximizing (c'(w), -w).  Nominated vertices join.
//
// Every step only needs information from a ball of radius ≤ 2r, so the
// distributed version runs in Θ(r) LOCAL rounds — constant for fixed r —
// unlike the paper's Theorem 9 pipeline, whose order computation costs
// O(log n) rounds.  The price is a weaker (but on bounded expansion classes
// still constant) approximation guarantee; experiment E10 measures the gap.

// KSVSequential is the sequential reference of the constant-round algorithm;
// the distributed version (RunKSV) must produce exactly the same set.
func KSVSequential(g *graph.Graph, r int) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	// c(v) = |B_r(v)|: the coverage every vertex could offer initially.
	wk := graph.NewWalker(g)
	c := make([]int, n)
	for v := 0; v < n; v++ {
		c[v] = len(wk.Walk(v, r))
	}
	// Phase 1: elect vertices whose (c, -id) is maximal within their 2r-ball.
	elected := make([]bool, n)
	covered := make([]bool, n)
	var D []int
	for v := 0; v < n; v++ {
		win := true
		for _, w := range wk.Walk(v, 2*r) {
			if c[w] > c[v] || (c[w] == c[v] && int(w) < v) {
				win = false
				break
			}
		}
		elected[v] = win
	}
	for v := 0; v < n; v++ {
		if elected[v] {
			D = append(D, v)
			for _, u := range wk.Walk(v, r) {
				covered[u] = true
			}
		}
	}
	// Phase 2: demands against the uncovered snapshot, then nominations.
	demand := make([]int, n)
	for w := 0; w < n; w++ {
		cnt := 0
		for _, u := range wk.Walk(w, r) {
			if !covered[u] {
				cnt++
			}
		}
		demand[w] = cnt
	}
	nominated := make([]bool, n)
	for u := 0; u < n; u++ {
		if covered[u] {
			continue
		}
		best := int32(u)
		for _, w := range wk.Walk(u, r) {
			if demand[w] > demand[best] || (demand[w] == demand[best] && w < best) {
				best = w
			}
		}
		nominated[best] = true
	}
	for w := 0; w < n; w++ {
		if nominated[w] && !elected[w] {
			D = append(D, w)
		}
	}
	sort.Ints(D)
	return D
}

// KSV flooding phases (the tag routes records to the right accumulator; the
// windows are synchronized by round number, but a tag keeps boundary-round
// stragglers from being misfiled).  A flood message is the 1 + 2·records
// words [phase, id, val, id, val, …].
const (
	ksvPhaseCount    int32 = iota + 1 // (id, c) records, radius 2r
	ksvPhaseElect                     // elected ids, radius r
	ksvPhaseUncov                     // uncovered ids, radius r
	ksvPhaseDemand                    // (id, c') records, radius r
	ksvPhaseNominate                  // nominated ids, radius r
)

// ksvRecord is one (vertex, value) pair flooded during a KSV phase.
type ksvRecord struct{ ID, Val int }

func (rec ksvRecord) vertex() int { return rec.ID }

// ksvNode is the distributed implementation.  Round structure (7r rounds):
//
//	rounds 1..r        gather the r-ball topology → c = |B_r(self)|
//	rounds r+1..3r     flood (id, c) to radius 2r → elect local maxima
//	rounds 3r+1..4r    flood elected ids to radius r → coverage status
//	rounds 4r+1..5r    flood uncovered ids to radius r → demand c'
//	rounds 5r+1..6r    flood (id, c') to radius r
//	rounds 6r+1..7r    flood nominations to radius r
type ksvNode struct {
	id     int
	r      int
	rounds int

	gather  knowledge
	c       int
	cFlood  flood[ksvRecord] // (id, c) within distance 2r
	elected bool
	elFlood flood[ksvRecord] // elected ids within distance r
	covered bool
	unFlood flood[ksvRecord] // uncovered ids within distance r
	ddFlood flood[ksvRecord] // (id, c') within distance r
	noFlood flood[ksvRecord] // nominated ids within distance r
	inSet   bool
}

func (k *ksvNode) Init(ctx *dist.Context) {
	k.gather.addSelf(k.id, false, ctx)
	k.gather.send(ctx)
}

func (k *ksvNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	k.rounds++
	t, r := k.rounds, k.r
	// Knowledge records arrive in rounds 1..r and flood messages after
	// that.  Absorb within each phase's window (a record of phase p sent at
	// the window's last forwarding round arrives one round later, so the
	// absorb windows extend one round past the forwarding windows below).
	for _, in := range inbox {
		if t <= r {
			k.gather.absorb(in.Words)
			continue
		}
		var f *flood[ksvRecord]
		switch in.Words[0] {
		case ksvPhaseCount:
			if t <= 3*r {
				f = &k.cFlood
			}
		case ksvPhaseElect:
			if t <= 4*r {
				f = &k.elFlood
			}
		case ksvPhaseUncov:
			if t <= 5*r {
				f = &k.unFlood
			}
		case ksvPhaseDemand:
			if t <= 6*r {
				f = &k.ddFlood
			}
		case ksvPhaseNominate:
			f = &k.noFlood
		}
		if f == nil {
			continue
		}
		for recs := in.Words[1:]; len(recs) >= 2; recs = recs[2:] {
			f.add(ksvRecord{ID: int(recs[0]), Val: int(recs[1])})
		}
	}
	// Phase boundaries: fold the completed window into the node state and
	// seed the next flood.
	switch t {
	case r:
		// The gatherer holds exactly the records of B_r(self).
		k.c = len(k.gather.known)
		k.cFlood.add(ksvRecord{ID: k.id, Val: k.c})
	case 3 * r:
		k.elected = true
		for id, rec := range k.cFlood.known {
			if c := rec.Val; c > k.c || (c == k.c && id < k.id) {
				k.elected = false
				break
			}
		}
		if k.elected {
			k.inSet = true
			k.elFlood.add(ksvRecord{ID: k.id})
		}
	case 4 * r:
		k.covered = len(k.elFlood.known) > 0
		if !k.covered {
			k.unFlood.add(ksvRecord{ID: k.id})
		}
	case 5 * r:
		// Demand = |B_r(self) ∩ U| (self included when uncovered).
		k.ddFlood.add(ksvRecord{ID: k.id, Val: len(k.unFlood.known)})
	case 6 * r:
		if !k.covered {
			best, bestD := k.id, k.ddFlood.known[k.id].Val
			for id, rec := range k.ddFlood.known {
				if d := rec.Val; d > bestD || (d == bestD && id < best) {
					best, bestD = id, d
				}
			}
			if best == k.id {
				k.inSet = true
			} else {
				k.noFlood.add(ksvRecord{ID: best})
			}
		}
	}
	// Forward the flood whose window is open: a round's message carries
	// one flood, whose phase word the receiver files it by.
	switch {
	case t < r:
		k.gather.send(ctx)
	case t < 3*r:
		k.broadcast(ctx, &k.cFlood, ksvPhaseCount)
	case t < 4*r:
		k.broadcast(ctx, &k.elFlood, ksvPhaseElect)
	case t < 5*r:
		k.broadcast(ctx, &k.unFlood, ksvPhaseUncov)
	case t < 6*r:
		k.broadcast(ctx, &k.ddFlood, ksvPhaseDemand)
	case t < 7*r:
		k.broadcast(ctx, &k.noFlood, ksvPhaseNominate)
	}
}

func (k *ksvNode) broadcast(ctx *dist.Context, f *flood[ksvRecord], phase int32) {
	recs := f.flush()
	if len(recs) == 0 {
		return
	}
	ctx.Broadcast([]int32{phase})
	for _, rec := range recs {
		ctx.Broadcast([]int32{int32(rec.ID), int32(rec.Val)})
	}
}

func (k *ksvNode) Done() bool { return k.rounds >= 7*k.r }

// KSVResult is the outcome of the distributed constant-round algorithm.
type KSVResult struct {
	// Set is the computed distance-r dominating set, sorted.
	Set []int
	// NumElected is the size of the phase-1 elected set (a distance-2r
	// scattered set, hence a lower bound on the distance-r optimum).
	NumElected int
	// Stats is the simulator cost (7r rounds).
	Stats dist.Stats
}

// RunKSV executes the constant-round algorithm on the simulator.  The
// protocol only broadcasts, so it is legal in every model; the flooded
// neighborhood records make it a LOCAL-style algorithm (message sizes grow
// with the r-ball, tracked in Stats).
func RunKSV(g *graph.Graph, r int, model dist.Model, opts dist.Options) (*KSVResult, error) {
	if err := atLeastOne("radius", r); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return &KSVResult{}, nil
	}
	p := &pipeline{g: g, model: model, opts: opts}
	defer p.release()
	nodes := make([]ksvNode, g.N())
	err := p.run("kubsv", func(v int) dist.Node {
		nodes[v] = ksvNode{id: v, r: r}
		return &nodes[v]
	})
	if err != nil {
		return nil, err
	}
	res := &KSVResult{Stats: p.Stats}
	for v := range nodes {
		nd := &nodes[v]
		if _, nominated := nd.noFlood.known[v]; nd.inSet || nominated {
			res.Set = append(res.Set, v)
		}
		if nd.elected {
			res.NumElected++
		}
	}
	return res, nil
}
