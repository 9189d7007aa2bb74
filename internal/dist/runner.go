package dist

import (
	"fmt"
	"time"

	"bedom/internal/graph"
)

// Runner executes protocols on one graph in one model.  Create it with
// NewRunner and execute with Run, any number of times: a pipeline runs its
// phases in sequence on one Runner.  Each Run is a fresh run with its own
// Stats and RunProfile; it reuses the arrays of the runs before it, and
// Release hands them on to the next runner.
type Runner struct {
	g     *graph.Graph
	model Model
	opts  Options
	// bandwidth is the CongestBC word limit (0 = unlimited; always 0 in
	// LOCAL).
	bandwidth int
	maxRounds int

	// off and tgt are the graph's CSR arrays, read in place: the neighbors
	// of v are tgt[off[v]:off[v+1]], sorted increasingly (see graph.CSR).
	off, tgt []int32

	// arrays is taken by the first Run (see alloc) and reused by every
	// later one, which resets what it reads of it; Release hands it on.
	arrays
	// stepBlocks is stepBlock bound once (a method value handed to another
	// goroutine escapes, so binding it every round would allocate).
	stepBlocks func(k, lo, hi int)

	// Telemetry state, only set when opts.Probe is (the disabled path must
	// cost nothing — see probe.go for the contract).  rounds is the current
	// run's and handed to its profile; the word arrays are windows of
	// arrays.words, cleared for every run.
	rounds    []RoundProfile
	sentWords []int64
	recvWords []int64

	round int
}

// NewRunner prepares simulator runs of the given model on the finalized
// graph g.  The graph is only read, in place; it may be shared between
// concurrent runners.
func NewRunner(g *graph.Graph, model Model, opts Options) *Runner {
	n := g.N()
	r := &Runner{
		g:         g,
		model:     model,
		opts:      opts,
		maxRounds: opts.MaxRounds,
	}
	if model == CongestBC {
		r.bandwidth = opts.Bandwidth
	}
	if r.maxRounds <= 0 {
		// A runaway guard, not a complexity bound: the library's protocols
		// finish in O(r·log n) rounds, and even the stall-breaker of the
		// refined-order protocol stays linear in n with small constants.
		r.maxRounds = 100*n + 1000
	}
	r.off, r.tgt = g.CSR()
	return r
}

// row returns the sorted neighbors of v, a window of the graph's CSR.
func (r *Runner) row(v int) []int32 { return r.tgt[r.off[v]:r.off[v+1]] }

// Run instantiates a node per vertex via factory (called sequentially in
// vertex order, so factories may write to shared result slices), runs Init
// and then synchronous rounds until termination, and returns the accumulated
// statistics.  On a message past the bandwidth or a round overrun it returns
// the statistics gathered so far together with the error.  A later Run on
// the same Runner is unaffected by how this one ended.
//
// Termination: the run ends after the first round in which no node sent a
// message and every node is done.
//
// Every run (successful or failed) is summarised in one RunProfile: the
// process-wide simulator metrics account it under its model and phase, the
// pipeline stage it implements (see metrics.go), and a Probe, when set,
// keeps it with its round profiles and congestion table.
func (r *Runner) Run(phase string, factory func(v int) Node) (Stats, error) {
	start := time.Now()
	st, err := r.run(factory)
	rp := RunProfile{
		Model:      r.model.String(),
		Phase:      phase,
		N:          r.g.N(),
		Stats:      st,
		DurationNS: time.Since(start).Nanoseconds(),
	}
	if err != nil {
		rp.Err = err.Error()
	}
	recordRun(&rp, err)
	if p := r.opts.Probe; p != nil {
		rp.Rounds = r.rounds
		rp.Congestion = congestionTable(r.sentWords, r.recvWords, p.topK())
		p.add(rp)
	}
	return st, err
}

func (r *Runner) run(factory func(v int) Node) (Stats, error) {
	r.rounds = nil // the previous run's profile owns its rounds
	if !r.model.valid() {
		return Stats{}, fmt.Errorf("%w: %d", ErrBadModel, int(r.model))
	}
	n := r.g.N()
	if n == 0 {
		return Stats{}, nil
	}
	if r.nodes == nil {
		r.alloc()
	}
	clear(r.sentWords)
	clear(r.recvWords)
	for v := 0; v < n; v++ {
		node := factory(v)
		if node == nil {
			return Stats{}, fmt.Errorf("dist: factory returned nil node for vertex %d", v)
		}
		r.nodes[v] = node
		// A fresh context: no message in either slot.
		r.ctxs[v] = Context{r: r, v: v}
	}
	probe := r.opts.Probe

	// Round 0: Init every node.
	r.round = 0
	if init := r.forEachNode(); init.overWords > 0 {
		return Stats{}, r.tooLarge(&init)
	}

	var stats Stats
	var roundStart time.Time
	for t := 1; ; t++ {
		if t > r.maxRounds {
			return stats, fmt.Errorf("%w: no quiescence after %d rounds in %v (MaxRounds)",
				ErrMaxRounds, r.maxRounds, r.model)
		}
		r.round = t
		if probe != nil {
			roundStart = time.Now()
		}
		total := r.forEachNode()
		stats.Rounds = t
		stats.Messages += total.messages
		stats.Words += total.words
		if total.maxWords > stats.MaxMessageWords {
			stats.MaxMessageWords = total.maxWords
		}
		if probe != nil {
			// Recorded before the error check: an aborting round's
			// deliveries are in stats, so they belong in the profile too.
			r.rounds = append(r.rounds, RoundProfile{
				Round:           t,
				Messages:        total.messages,
				Words:           total.words,
				MaxMessageWords: total.maxWords,
				ActiveNodes:     total.active,
				HaltedNodes:     total.halted,
				DurationNS:      time.Since(roundStart).Nanoseconds(),
			})
		}
		if total.overWords > 0 {
			return stats, r.tooLarge(&total)
		}
		if !total.anySent && total.allDone {
			return stats, nil
		}
	}
}

// step executes vertex v's part of the current round t as worker w.  Round
// 0 calls Init.  Later rounds gather the inbox from the neighbors' round t-1
// slots and call Round.  Whatever the call broadcast is v's message, the
// words it appended to w's slab; the step checks its size once and puts it
// in v's round t slot.  A step only reads other vertices' t-1 slots and
// writes its own vertex's state and w's, so steps of distinct vertices
// never conflict.
func (r *Runner) step(w *worker, v int) {
	c := &r.ctxs[v]
	if c.w != w {
		// A vertex keeps its worker from round to round, so this pointer
		// store, which costs a write barrier while the GC marks, is rare.
		c.w = w
	}
	acc := &w.acc
	t := r.round
	slab := &w.slab[t%2]
	start := len(*slab)
	sent := &c.sent[t%2]
	*sent = (*sent)[:0] // a length store: no write barrier
	if t == 0 {
		r.nodes[v].Init(c)
	} else {
		wordsBefore := acc.words
		inbox := w.inbox[:0]
		for _, u := range r.row(v) {
			if m := r.ctxs[u].sent[(t-1)%2]; len(m) != 0 {
				inbox = append(inbox, Inbound{From: int(u), Words: m})
				acc.deliver(len(m))
			}
		}
		w.inbox = inbox
		if r.recvWords != nil {
			// Each vertex is stepped by exactly one worker per round, so
			// its slot is race-free; diffing the accumulator keeps the
			// disabled path free of per-delivery probe work.
			r.recvWords[v] += acc.words - wordsBefore
		}
		r.nodes[v].Round(c, inbox)
		if r.nodes[v].Done() {
			acc.halted++
		} else {
			acc.allDone = false
		}
	}
	end := len(*slab)
	switch size := end - start; {
	case size == 0:
	case r.bandwidth > 0 && size > r.bandwidth:
		// The message is not sent, and the run aborts after the round.  The
		// worker steps its block in increasing order, so the first overrun
		// it sees is its smallest.
		*slab = (*slab)[:start]
		if acc.overWords == 0 {
			acc.over, acc.overWords = v, size
		}
	default:
		*sent = (*slab)[start:end:end] // capped: a receiver's append cannot reach the next message
		acc.anySent = true
		acc.active++
		if r.sentWords != nil {
			// Attributed as delivered words at send time: a message of s
			// words by a vertex of degree d will cross d edges.  A run that
			// aborts before the next round never delivers these; a
			// successful run's last round sends nothing, so there send and
			// receive totals agree.
			r.sentWords[v] += int64(size) * int64(r.off[v+1]-r.off[v])
		}
	}
}

// tooLarge reports the overrun of a round's accumulator: the message of
// its smallest vertex, so the error is the same for any worker count.
func (r *Runner) tooLarge(a *roundAccum) error {
	return fmt.Errorf("%w: vertex %d sent %d words (limit %d) in round %d of %v",
		ErrMessageTooLarge, a.over, a.overWords, r.bandwidth, r.round, r.model)
}
