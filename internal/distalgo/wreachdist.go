package distalgo

import (
	"slices"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// wreachNode implements Algorithm 4 (WReachDist) of the paper.  Its
// messages are paths, each a vertex sequence starting at the weakly
// reachable target and ending at the broadcasting vertex, sent one after
// another.  Every vertex w maintains, for each vertex u with sid(u) <
// sid(w) discovered so far, the best known path from u to w (shortest, ties
// broken lexicographically by super-ids).  In each round it broadcasts the
// paths it improved, extended by itself, provided they are still short
// enough to be extended further.
type wreachNode struct {
	id      int32
	pos     []int // pos[v] = super-id (position in L) of vertex v
	horizon int

	// best holds the best known path to every discovered target, sorted by
	// the target's super-id (entry 0 is the node itself until a smaller
	// target turns up).  It is Algorithm 4's table, which the later phases
	// read in place.
	best []wreachEntry
	// arena backs every adopted path.
	arena     []int32
	roundsRun int32
}

// wreachEntry is the best known path from one target to the node:
// arena[start:end], target first and this vertex last.  It holds offsets
// rather than a slice, so inserting into the sorted table moves no pointers.
type wreachEntry struct {
	tpos       int32 // super-id of the target
	start, end int32
	// adopted is the round in which the path was last improved; a round
	// broadcasts the entries it adopted.
	adopted int32
}

func (w *wreachNode) Init(ctx *dist.Context) {
	// Round 0: broadcast the trivial path consisting of the own super-id.
	start, end := w.adopt(nil)
	w.best = append(w.best, wreachEntry{tpos: int32(w.pos[w.id]), start: start, end: end})
	w.broadcast(ctx)
}

func (w *wreachNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	w.roundsRun++
	for _, in := range inbox {
		// A path never revisits a vertex, so each occurrence of the sender
		// ends one.
		from, start := int32(in.From), 0
		for i, x := range in.Words {
			if x == from {
				w.consider(in.Words[start : i+1])
				start = i + 1
			}
		}
	}
	w.broadcast(ctx)
}

// broadcast sends the paths adopted in the current round that can still
// grow (length < horizon), in target super-id order.
func (w *wreachNode) broadcast(ctx *dist.Context) {
	for _, e := range w.best {
		if e.adopted == w.roundsRun && int(e.end-e.start)-1 < w.horizon {
			ctx.Broadcast(w.path(e))
		}
	}
}

// consider examines a received path (target … sender) and adopts its
// extension by this vertex if it is an improvement.  The candidate is
// compared where it lies, in the sender's message, and copied only when
// adopted.
func (w *wreachNode) consider(p []int32) {
	tpos := int32(w.pos[p[0]])
	// Keep only paths from strictly smaller vertices (line 8 of Algorithm 4).
	if int(tpos) >= w.pos[w.id] {
		return
	}
	if len(p) >= w.horizon+1 {
		// Extending would exceed the horizon.
		return
	}
	// Avoid walks that revisit this vertex.
	if slices.Contains(p, w.id) {
		return
	}
	i := w.find(tpos)
	have := i < len(w.best) && w.best[i].tpos == tpos
	if have && !w.extensionBetter(p, w.arena[w.best[i].start:w.best[i].end]) {
		return
	}
	e := wreachEntry{tpos: tpos, adopted: w.roundsRun}
	e.start, e.end = w.adopt(p)
	if have {
		w.best[i] = e
		return
	}
	w.best = slices.Insert(w.best, i, e)
}

// find returns the position of target super-id tpos in the table, or its
// insertion point if absent.
func (w *wreachNode) find(tpos int32) int {
	lo, hi := 0, len(w.best)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.best[mid].tpos < tpos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// adopt appends p extended by this vertex to the arena and returns its
// offsets there.
func (w *wreachNode) adopt(p []int32) (start, end int32) {
	start = int32(len(w.arena))
	w.arena = append(append(w.arena, p...), w.id)
	return start, int32(len(w.arena))
}

// extensionBetter reports whether p extended by this vertex is strictly
// better than the stored path cur: shorter, or of equal length and
// lexicographically smaller with respect to super-ids.  cur ends at this
// vertex too, so only the first len(p) entries can differ.
func (w *wreachNode) extensionBetter(p, cur []int32) bool {
	if len(p)+1 != len(cur) {
		return len(p)+1 < len(cur)
	}
	for i, x := range p {
		if w.pos[x] != w.pos[cur[i]] {
			return w.pos[x] < w.pos[cur[i]]
		}
	}
	return false
}

// path returns the stored path of e, target first.
func (w *wreachNode) path(e wreachEntry) []int32 { return w.arena[e.start:e.end] }

// appendToken appends the path of e reversed, this vertex first and the
// target last: the token that routes a message along it.
func (w *wreachNode) appendToken(toks []int32, e wreachEntry) []int32 {
	path := w.path(e)
	for i := len(path) - 1; i >= 0; i-- {
		toks = append(toks, path[i])
	}
	return toks
}

func (w *wreachNode) Done() bool {
	// After `horizon` exchange rounds every weakly reachable vertex within
	// the horizon has been discovered; a couple of extra quiet rounds let the
	// last adoptions settle before the runner detects global quiescence.
	return int(w.roundsRun) >= w.horizon
}

// WReachDistResult is the output of the distributed weak-reachability
// computation.
type WReachDistResult struct {
	// Witnesses[w] lists, for each weakly reachable vertex (including w
	// itself), the routing path stored at w, sorted by the super-id of the
	// target (so entry 0 is the witness to min WReach).  The paths are
	// oriented from w to the target, matching order.PathTo.
	Witnesses [][]order.PathTo
	// Stats is the simulator cost.
	Stats dist.Stats
}

// RunWReachDist runs Algorithm 4 with the given order (super-ids) and
// horizon (2r for covers/dominating sets, 2r+1 for the connected variant) in
// the given model.  CONGEST_BC suffices: every vertex only broadcasts.
func RunWReachDist(g *graph.Graph, o *order.Order, horizon int, model dist.Model, opts dist.Options) (*WReachDistResult, error) {
	if err := atLeastOne("horizon", horizon); err != nil {
		return nil, err
	}
	p := &pipeline{g: g, model: model, opts: opts}
	defer p.release()
	nodes, err := p.wreach(o, horizon)
	if err != nil {
		return nil, err
	}
	return &WReachDistResult{Witnesses: witnessLists(nodes), Stats: p.Stats}, nil
}

// wreachMem is the memory of Algorithm 4 that the graph fixes: the node
// array and the two flat arrays whose windows are the nodes' first tables
// and arenas.  A released pipeline hands it on through wreachSets.
type wreachMem struct {
	nodes   []wreachNode
	entries []wreachEntry
	ints    []int32
}

// wreachSets holds the Algorithm 4 memory of released pipelines.
var wreachSets dist.FreeList[wreachMem]

// wreach runs the Algorithm 4 phase and returns its nodes, whose tables
// hold every vertex's witnesses until the pipeline is released.  A
// pipeline runs it at most once.
func (p *pipeline) wreach(o *order.Order, horizon int) ([]wreachNode, error) {
	g := p.g
	n := g.N()
	pos := o.Positions()
	// Every node starts with windows of two flat arrays, sized for Init
	// and the first round: itself plus at most one new target per neighbor,
	// each a path of at most two vertices.  Later rounds append past the
	// windows into arrays of the node's own.
	slots := n + 2*g.M()
	m, ok := wreachSets.Take(func(m *wreachMem) bool { return cap(m.nodes) >= n && cap(m.entries) >= slots })
	if !ok {
		m = wreachMem{nodes: make([]wreachNode, n), entries: make([]wreachEntry, slots), ints: make([]int32, 2*slots)}
	}
	m.nodes = m.nodes[:n]
	p.alg4 = m
	nodes, entries, ints := m.nodes, m.entries, m.ints
	err := p.run("wreach", func(v int) dist.Node {
		d := g.Degree(v) + 1
		d2 := 2 * d
		nodes[v] = wreachNode{id: int32(v), pos: pos, horizon: horizon,
			best: entries[:0:d], arena: ints[:0:d2]}
		entries, ints = entries[d:], ints[d2:]
		return &nodes[v]
	})
	if err != nil {
		return nil, err
	}
	return nodes, nil
}

// witnessLists copies the tables of Algorithm 4's nodes out as witness
// lists: every list and path is a window of one flat array each.
func witnessLists(nodes []wreachNode) [][]order.PathTo {
	pairs, words := 0, 0
	for i := range nodes {
		pairs += len(nodes[i].best)
		for _, e := range nodes[i].best {
			words += int(e.end - e.start)
		}
	}
	wits := make([]order.PathTo, 0, pairs)
	flat := make([]int, words)
	witnesses := make([][]order.PathTo, len(nodes))
	for v := range nodes {
		first := len(wits)
		for _, e := range nodes[v].best {
			// Stored paths run target → … → v; PathTo wants v → … → target.
			path := nodes[v].path(e)
			rev := flat[:len(path):len(path)]
			flat = flat[len(path):]
			for i, x := range path {
				rev[len(rev)-1-i] = int(x)
			}
			wits = append(wits, order.PathTo{Target: int(path[0]), Path: rev})
		}
		witnesses[v] = wits[first:len(wits):len(wits)]
	}
	return witnesses
}
