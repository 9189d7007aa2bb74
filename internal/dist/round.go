package dist

import "bedom/internal/graph"

// worker is the state of one goroutine stepping a block of vertices: its
// round accumulator, its two slabs and its inbox.  slab[p] holds the words
// of the broadcasts its vertices staged in the last round of parity p.
// Those words are read by the neighbors' steps of the next round only, so
// the worker empties slab[t%2] when it starts round t and reuses its array.
// Message memory thus lives in a few pointer-free arrays per run.  inbox
// holds the messages of the vertex being stepped; the worker refills it for
// each vertex, since an inbox is valid only during its Round call.
type worker struct {
	acc   roundAccum
	slab  [2][]int32
	inbox []Inbound
}

// stage appends words to the slab of parity p and returns their window
// there, capped so that a receiver's append cannot reach the next message.
func (w *worker) stage(p int, words []int32) []int32 {
	start := len(w.slab[p])
	w.slab[p] = append(w.slab[p], words...)
	return w.slab[p][start:len(w.slab[p]):len(w.slab[p])]
}

// roundAccum collects the per-round bookkeeping of one worker: delivery
// statistics, the quiescence and halting flags, and whether a model
// violation was recorded.  Workers fill private accumulators that are merged
// after the round; every merged quantity is order-independent (sums, max,
// AND/OR), so the result is identical for any worker count and scheduling.
type roundAccum struct {
	messages int64
	words    int64
	maxWords int
	// active counts vertices that broadcast this step; halted counts
	// vertices reporting Done (nodes without a Halter always count).  Both feed the round profiles of probe.go and are plain sums,
	// so they stay order-independent like everything else here.
	active  int
	halted  int
	anySent bool
	allDone bool
	errSeen bool
}

func (a *roundAccum) deliver(words int) {
	a.messages++
	a.words += int64(words)
	if words > a.maxWords {
		a.maxWords = words
	}
}

func (a *roundAccum) merge(b *roundAccum) {
	a.messages += b.messages
	a.words += b.words
	if b.maxWords > a.maxWords {
		a.maxWords = b.maxWords
	}
	a.active += b.active
	a.halted += b.halted
	a.anySent = a.anySent || b.anySent
	a.allDone = a.allDone && b.allDone
	a.errSeen = a.errSeen || b.errSeen
}

// forEachNode steps every vertex for the current round, one contiguous
// block of vertex ids per worker (graph.ParallelBlocks), and returns the
// merged accumulator.  A step only touches state owned by its vertex (see
// Runner.step); ParallelBlocks returns after every block is done, which
// orders one round before the next.
func (r *Runner) forEachNode() roundAccum {
	graph.ParallelBlocks(r.g.N(), len(r.workers), r.stepBlocks)
	total := roundAccum{allDone: true}
	for k := range r.workers {
		total.merge(&r.workers[k].acc)
	}
	return total
}

// stepBlock steps the vertices lo..hi-1 as worker k: it resets the
// worker's accumulator and its slab of this round's parity.
func (r *Runner) stepBlock(k, lo, hi int) {
	w := &r.workers[k]
	w.acc = roundAccum{allDone: true}
	w.slab[r.round%2] = w.slab[r.round%2][:0]
	for v := lo; v < hi; v++ {
		r.step(w, v)
	}
}
