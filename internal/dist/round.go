package dist

import "bedom/internal/graph"

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
	graph.ParallelBlocks(r.g.N(), len(r.accs), r.stepBlocks)
	total := roundAccum{allDone: true}
	for k := range r.accs {
		total.merge(&r.accs[k])
	}
	return total
}

// stepBlock steps the vertices lo..hi-1 into worker k's accumulator.
func (r *Runner) stepBlock(k, lo, hi int) {
	acc := &r.accs[k]
	*acc = roundAccum{allDone: true}
	for v := lo; v < hi; v++ {
		r.step(acc, v)
	}
}
