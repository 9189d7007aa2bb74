package dist

import "bedom/internal/graph"

// worker is the state of one goroutine stepping a block of vertices: its
// round accumulator, its two slabs and its inbox.  slab[p] holds the
// messages its vertices built in the last round of parity p, each vertex's
// words one after another, appended in place by Broadcast.  Those words are
// read by the neighbors' steps of the next round only, so the worker
// empties slab[t%2] when it starts round t and reuses its array.  Message
// memory thus lives in a few pointer-free arrays per run.  inbox holds the
// messages of the vertex being stepped; the worker refills it for each
// vertex, since an inbox is valid only during its Round call.
type worker struct {
	acc   roundAccum
	slab  [2][]int32
	inbox []Inbound
}

// roundAccum collects the per-round bookkeeping of one worker: delivery
// statistics, the quiescence and halting flags, and the smallest vertex
// whose message exceeded the bandwidth.  Workers fill private accumulators
// that are merged after the round; every merged quantity is
// order-independent (sums, max, min, AND/OR), so the result is identical
// for any worker count and scheduling.
type roundAccum struct {
	messages int64
	words    int64
	maxWords int
	// active counts vertices that broadcast this step; halted counts
	// vertices reporting Done.  Both feed the round profiles of probe.go
	// and are plain sums, so they stay order-independent like everything
	// else here.
	active  int
	halted  int
	anySent bool
	allDone bool
	// overWords is the length of the message of vertex over, the smallest
	// vertex whose message exceeded the bandwidth this round; it is 0 when
	// every message fit.
	over, overWords int
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
	if b.overWords > 0 && (a.overWords == 0 || b.over < a.over) {
		a.over, a.overWords = b.over, b.overWords
	}
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
