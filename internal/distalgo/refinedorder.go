package distalgo

import (
	"slices"
	"sort"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// This file implements a distributed *refined* order computation that follows
// the structure of the Nešetřil–Ossona de Mendez pipeline (Theorem 3) more
// closely than the plain H-partition: after a base H-partition and one run of
// Algorithm 4, every vertex knows its weak-reachability "shortcut" neighbors
// together with routing paths of length at most the horizon.  A second,
// relayed H-partition is then executed on this shortcut graph — messages
// between shortcut neighbors travel along the stored paths, so each logical
// step costs up to `horizon` communication rounds — and the resulting classes
// define the refined order.  The total round count is O(horizon·log n + r),
// matching the O(r²·log n) shape of the paper's Theorem 3 (it is the
// iterated-orientation idea of [46] with the fraternal/transitive closure
// replaced by the weak-reachability closure that Algorithm 4 computes
// anyway).
//
// The refined order typically has a noticeably smaller measured wcol_2r than
// the base H-partition order.  It is experiment E8's ablation of the
// Theorem 3 order; the Theorem 9 and 10 pipelines run on the base order.

// helloToken announces a shortcut edge: it travels from the weakly reaching
// vertex to the target so that both endpoints learn the edge and a routing
// path for it.
//
// joinToken announces that a vertex has joined a class of the relayed
// H-partition (i.e. became inactive); it travels to all of its shortcut
// neighbors.
//
// A node handles both as decoded tokens
//
//	[kind, hopIndex, path[0], path[1], ..., path[L]]
//
// where path[0] is the origin, path[L] the destination and hopIndex the
// position of the current holder within the path; kind 0 = hello, 1 = join.
// Keeping the full path in the token lets the destination of a hello token
// learn the reverse routing path back to the origin.  On the wire a token
// is the 2 + L + 1 words [kind | hopIndex<<1, L + 1, path…], and a message
// is its tokens one after another.

const (
	tokHello = 0
	tokJoin  = 1
)

// refinedNode runs the symmetrisation ("hello") phase followed by the
// continuous relayed H-partition.
type refinedNode struct {
	id        int
	horizon   int
	threshold int
	// wreach is this vertex's Algorithm 4 node, whose table holds its
	// weak-reachability paths.
	wreach *wreachNode

	// shortcut neighbors: neighbor id → routing path (self first).
	shortcut map[int][]int32
	// activeNeighbors tracks shortcut neighbors not yet known to have joined.
	activeNeighbors map[int]bool
	// pendingJoins buffers join announcements received before the hello
	// phase finished building the neighbor table.
	pendingJoins map[int]bool

	active bool
	class  int
	rounds int
	// idleRounds counts rounds without incoming tokens, used as a
	// stall-breaker so that termination never depends on the threshold
	// being a true degeneracy bound of the shortcut graph.
	idleRounds int
	// announced reports whether the join announcement has been sent.
	announced bool
	maxRounds int
	// tok is the scratch a received token is decoded into.
	tok []int32
}

func (rn *refinedNode) Init(ctx *dist.Context) {
	rn.active = true
	rn.shortcut = make(map[int][]int32)
	rn.activeNeighbors = make(map[int]bool)
	rn.pendingJoins = make(map[int]bool)
	// Originate hello tokens along every witness path (skip the self
	// witness).
	for _, e := range rn.wreach.best {
		if e.end-e.start < 2 {
			continue
		}
		// Record the shortcut edge locally, its path self → target.
		path := rn.wreach.appendToken(nil, e)
		target := int(path[len(path)-1])
		rn.shortcut[target] = path
		rn.activeNeighbors[target] = true
		broadcastToken(ctx, tokHello, 0, path)
	}
}

// broadcastToken sends the token of the given kind and hop index along
// path in its wire format.
func broadcastToken(ctx *dist.Context, kind, hop int32, path []int32) {
	ctx.Broadcast([]int32{kind | hop<<1, int32(len(path))})
	ctx.Broadcast(path)
}

// handleToken processes a token whose next hop is this vertex and returns the
// forwarded continuation (nil if the token terminated here or is not
// addressed to this vertex).
func (rn *refinedNode) handleToken(tok []int32) []int32 {
	if len(tok) < 4 {
		return nil
	}
	kind, hop := tok[0], int(tok[1])
	path := tok[2:]
	if hop+1 >= len(path) || int(path[hop+1]) != rn.id {
		return nil
	}
	hop++
	if hop < len(path)-1 {
		// Not yet at the destination: forward with the advanced hop index.
		fwd := slices.Clone(tok)
		fwd[1] = int32(hop)
		return fwd
	}
	// Token arrived at its destination (this vertex).
	origin := int(path[0])
	switch kind {
	case tokHello:
		if _, ok := rn.shortcut[origin]; !ok {
			// Store the reverse path back to the origin.
			rev := make([]int32, len(path))
			for i, x := range path {
				rev[len(path)-1-i] = x
			}
			rn.shortcut[origin] = rev
			if rn.pendingJoins[origin] {
				delete(rn.pendingJoins, origin)
			} else {
				rn.activeNeighbors[origin] = true
			}
		}
	case tokJoin:
		if _, ok := rn.shortcut[origin]; ok {
			delete(rn.activeNeighbors, origin)
		} else {
			rn.pendingJoins[origin] = true
		}
	}
	return nil
}

func (rn *refinedNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	rn.rounds++
	sawToken := false
	var forward [][]int32
	for _, in := range inbox {
		// Each token carries its path length in its second word.
		for words := in.Words; len(words) >= 2; {
			n := 2 + int(words[1])
			rn.tok = append(append(rn.tok[:0], words[0]&1, words[0]>>1), words[2:n]...)
			words = words[n:]
			sawToken = true
			if cont := rn.handleToken(rn.tok); cont != nil {
				forward = append(forward, cont)
			}
		}
	}
	if sawToken {
		rn.idleRounds = 0
	} else {
		rn.idleRounds++
	}
	// After the hello phase has had time to complete (horizon rounds), the
	// relayed H-partition starts: join as soon as the number of still-active
	// shortcut neighbors drops to the threshold.  The stall-breaker forces a
	// join when nothing has moved for a while, so termination never depends
	// on the threshold being a true degeneracy bound of the shortcut graph.
	if rn.active && rn.rounds >= rn.horizon {
		if len(rn.activeNeighbors) <= rn.threshold || rn.idleRounds > 2*rn.horizon+2 {
			rn.active = false
			rn.class = rn.rounds
		}
	}
	if !rn.active && !rn.announced {
		rn.announced = true
		neighbors := make([]int, 0, len(rn.shortcut))
		for u := range rn.shortcut {
			neighbors = append(neighbors, u)
		}
		sort.Ints(neighbors)
		for _, u := range neighbors {
			path := rn.shortcut[u]
			if len(path) < 2 {
				continue
			}
			forward = append(forward, append([]int32{tokJoin, 0}, path...))
		}
	}
	for _, tok := range sortedDistinct(forward) {
		broadcastToken(ctx, tok[0], tok[1], tok[2:])
	}
}

func (rn *refinedNode) Done() bool {
	return (!rn.active && rn.announced) || rn.rounds >= rn.maxRounds
}

// RefinedOrderResult is the output of the distributed refined-order pipeline.
type RefinedOrderResult struct {
	// Order is the refined linear order.
	Order *order.Order
	// BaseOrder is the H-partition order the refinement started from.
	BaseOrder *order.Order
	// Stats totals all phases (base H-partition, Algorithm 4 on the base
	// order, relayed H-partition).
	Stats dist.Stats
}

// RunRefinedOrder computes the refined order distributively:
//
//  1. distributed H-partition (base order, O(log n) rounds),
//  2. Algorithm 4 with the given horizon on the base order (every vertex
//     learns its weak-reachability shortcut neighbors and routing paths),
//  3. a relayed H-partition on the shortcut graph (join notifications travel
//     along the stored paths), whose classes define the refined order:
//     vertices that stay active longer come earlier, ties by id.
//
// The threshold parameter plays the role of the class constant (2+ε)·a for
// the shortcut graph; passing 0 selects a default derived from the average
// shortcut degree.
func RunRefinedOrder(g *graph.Graph, horizon int, threshold int, model dist.Model, opts dist.Options) (*RefinedOrderResult, error) {
	if err := atLeastOne("horizon", horizon); err != nil {
		return nil, err
	}
	p := &pipeline{g: g, model: model, opts: opts}
	defer p.release()
	hp, err := p.hpartition(g.Degeneracy(), 1)
	if err != nil {
		return nil, err
	}
	wr, err := p.wreach(hp.Order, horizon)
	if err != nil {
		return nil, err
	}
	if threshold <= 0 {
		// Default: the average shortcut degree (counting both directions).
		// A tight threshold is what differentiates periphery from core —
		// with a very generous threshold every vertex would join in the
		// first step and the refinement would degenerate to the base order.
		// Sub-shortcut-graphs may locally exceed the average; the
		// stall-breaker inside the nodes guarantees termination regardless.
		total := 0
		for i := range wr {
			total += len(wr[i].best) - 1
		}
		avg := 1
		if g.N() > 0 {
			avg = 2*total/g.N() + 1
		}
		threshold = avg
	}

	maxRounds := p.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 20 * (g.N() + 10)
	}
	nodes := make([]*refinedNode, g.N())
	err = p.run("refined-order", func(v int) dist.Node {
		nodes[v] = &refinedNode{
			id:        v,
			horizon:   horizon,
			threshold: threshold,
			wreach:    &wr[v],
			maxRounds: maxRounds,
		}
		return nodes[v]
	})
	if err != nil {
		return nil, err
	}
	classes := make([]int, g.N())
	for v, nd := range nodes {
		classes[v] = nd.class
	}
	return &RefinedOrderResult{Order: OrderFromClasses(classes), BaseOrder: hp.Order, Stats: p.Stats}, nil
}
