package dist

import (
	"runtime"
	"slices"
	"sync"

	"bedom/internal/graph"
)

// FreeList hands memory from a pipeline that ended to the next one, so
// that a run takes its arrays from an earlier run instead of the garbage
// collector.  It holds at most GOMAXPROCS sets, the engine's default query
// concurrency; putting a set into a full list evicts the oldest.  A set
// belongs to whoever took it until it is put back.  FreeList is safe for
// concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	sets []T
}

// Take removes and returns the most recently put set that fits, and false
// when none does.  fits runs with the list locked and must only read the
// set it is given.
func (l *FreeList[T]) Take(fits func(*T) bool) (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.sets) - 1; i >= 0; i-- {
		if fits(&l.sets[i]) {
			s := l.sets[i]
			l.sets = slices.Delete(l.sets, i, i+1)
			return s, true
		}
	}
	var none T
	return none, false
}

// Put adds s to the list, evicting the oldest sets past the bound.
func (l *FreeList[T]) Put(s T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if over := len(l.sets) + 1 - runtime.GOMAXPROCS(0); over > 0 {
		l.sets = slices.Delete(l.sets, 0, over)
	}
	l.sets = append(l.sets, s)
}

// arrays is the memory of a runner that the graph and the worker count
// fix: a node and context per vertex, and a slab pair and inbox per
// worker.  Release hands it to a later runner through released.
type arrays struct {
	nodes []Node
	ctxs  []Context
	// workers holds the state of each stepping goroutine (see worker).
	workers []worker
	// words backs the probe's per-vertex sent and received word counts.  A
	// set only ever used without a probe leaves it nil.
	words [2][]int64
}

// released holds the arrays of released runners.
var released FreeList[arrays]

// alloc takes the arrays every run of the runner reuses: a released set
// when one has room for the graph's vertices and the runner's worker
// count, new arrays otherwise.
func (r *Runner) alloc() {
	n := r.g.N()
	k := graph.ResolveWorkers(r.opts.Workers, n)
	a, ok := released.Take(func(a *arrays) bool { return cap(a.nodes) >= n && len(a.workers) == k })
	if !ok {
		a = arrays{nodes: make([]Node, n), ctxs: make([]Context, n), workers: make([]worker, k)}
	}
	// Each slab starts with room for one word per vertex of its block, a
	// round of single-word broadcasts; wider rounds grow it, and later runs
	// keep the room.
	size := n/k + 1
	for i := range a.workers {
		for p, s := range a.workers[i].slab {
			if cap(s) < size {
				a.workers[i].slab[p] = make([]int32, 0, size)
			}
		}
	}
	a.nodes, a.ctxs = a.nodes[:n], a.ctxs[:n]
	if r.opts.Probe != nil {
		if cap(a.words[0]) < n {
			a.words = [2][]int64{make([]int64, n), make([]int64, n)}
		}
		r.sentWords, r.recvWords = a.words[0][:n], a.words[1][:n]
	}
	r.arrays = a
	r.stepBlocks = r.stepBlock
}

// Release ends the runner and hands its arrays to the next runner they
// fit.  They are cleared of pointers first, so a released set keeps no
// node, graph or message alive, and a slab that grew past maxSlabWords is
// dropped.  Nothing a run returned points into them: Stats and profiles
// are values of their own.  A Run after Release takes arrays anew, and a
// runner that is never released leaves its arrays to the garbage
// collector.
func (r *Runner) Release() {
	if r.nodes == nil {
		return
	}
	a := r.arrays
	r.arrays, r.sentWords, r.recvWords = arrays{}, nil, nil
	clear(a.nodes)
	clear(a.ctxs)
	limit := maxSlabWords(len(a.nodes), len(r.tgt), len(a.workers))
	for i := range a.workers {
		w := &a.workers[i]
		clear(w.inbox[:cap(w.inbox)])
		w.inbox = w.inbox[:0]
		for p := range w.slab {
			if cap(w.slab[p]) > limit {
				w.slab[p] = nil
			}
		}
	}
	released.Put(a)
}

// maxSlabWords bounds the room a released set keeps in each slab: four
// words per vertex and arc of a worker's share of the graph.  The
// CONGEST_BC pipelines stay below it (Algorithm 4 at horizon 5 on an
// Apollonian graph peaks at about 2.7), while a LOCAL flood, whose rounds
// carry whole neighbourhoods, grows past it and gives the room back.
func maxSlabWords(n, arcs, workers int) int {
	return 4 * (n + arcs) / workers
}
