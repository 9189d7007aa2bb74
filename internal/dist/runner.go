package dist

import (
	"fmt"
	"time"

	"bedom/internal/graph"
)

// Runner executes one protocol on one graph.  Create it with NewRunner and
// execute with Run; a Runner is single-use.
type Runner struct {
	g         *graph.Graph
	model     Model
	opts      Options
	bandwidth int
	maxRounds int

	// off and tgt are the graph's CSR arrays, read in place: the neighbors
	// of v are tgt[off[v]:off[v+1]], sorted increasingly (see graph.CSR).
	off, tgt []int32

	nodes   []Node
	halters []Halter // halters[v] is nil when nodes[v] has no Done method
	ctxs    []Context
	// inboxes[v] is v's window of one flat []Inbound, with capacity deg(v):
	// CONGEST and CONGEST_BC deliver at most one message per neighbor per
	// round, so the window never overflows there.  A LOCAL inbox may grow
	// past it; append then moves that vertex's inbox to an array of its own
	// and leaves its neighbors' windows untouched.
	inboxes [][]Inbound

	// Telemetry state, only allocated when opts.Probe is set (the disabled
	// path must cost nothing — see probe.go for the contract).
	rounds    []RoundProfile
	sentWords []int64
	recvWords []int64

	round int
	used  bool
}

// NewRunner prepares a simulator run of the given model on g.  The graph is
// only read; it may be shared between concurrent runners.  A finalized graph
// costs nothing to prepare; an unfinalized one is cloned and finalized once,
// as graph.NewDynamic does.
func NewRunner(g *graph.Graph, model Model, opts Options) *Runner {
	if !g.Finalized() {
		g = g.Clone()
		g.Finalize()
	}
	n := g.N()
	r := &Runner{
		g:         g,
		model:     model,
		opts:      opts,
		bandwidth: opts.Bandwidth,
		maxRounds: opts.MaxRounds,
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
// statistics.  On a model violation or round overrun it returns the
// statistics gathered so far together with the error.
//
// Termination: the run ends after the first round in which no node sent a
// message and every node implementing Halter is done.
//
// Every run (successful or failed) is summarised in one RunProfile: the
// process-wide simulator metrics account it under its model and
// Options.Phase (see metrics.go), and a Probe, when set, keeps it with its
// round profiles and congestion table.
func (r *Runner) Run(factory func(v int) Node) (Stats, error) {
	if r.used {
		return Stats{}, ErrRunnerReused
	}
	start := time.Now()
	st, err := r.run(factory)
	rp := RunProfile{
		Model:      r.model.String(),
		Phase:      r.opts.Phase,
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
	r.used = true
	if !r.model.valid() {
		return Stats{}, fmt.Errorf("%w: %d", ErrBadModel, int(r.model))
	}
	n := r.g.N()
	if n == 0 {
		return Stats{}, nil
	}

	r.nodes = make([]Node, n)
	r.halters = make([]Halter, n)
	for v := 0; v < n; v++ {
		node := factory(v)
		if node == nil {
			return Stats{}, fmt.Errorf("dist: factory returned nil node for vertex %d", v)
		}
		r.nodes[v] = node
		if h, ok := node.(Halter); ok {
			r.halters[v] = h
		}
	}
	r.ctxs = make([]Context, n)
	r.inboxes = make([][]Inbound, n)
	inbound := make([]Inbound, len(r.tgt))
	// An outbox holds at most one broadcast in the Congest models, so each
	// starts with a one-slot window of a flat array (LOCAL appends past it).
	bcasts := make([]sentMsg, 2*n)
	for v := 0; v < n; v++ {
		lo, hi := r.off[v], r.off[v+1]
		r.inboxes[v] = inbound[lo:lo:hi]
		c := &r.ctxs[v]
		c.r = r
		c.v = v
		c.boxes[0].bcasts = bcasts[2*v : 2*v : 2*v+1]
		c.boxes[1].bcasts = bcasts[2*v+1 : 2*v+1 : 2*v+2]
		c.out = &c.boxes[0]
	}
	probe := r.opts.Probe
	if probe != nil {
		r.sentWords = make([]int64, n)
		r.recvWords = make([]int64, n)
	}

	// Round 0: Init every node (messages land in outbox slot 0).
	r.round = 0
	init := r.forEachNode(func(acc *roundAccum, v int) {
		c := &r.ctxs[v]
		r.nodes[v].Init(c)
		c.finishStep()
		r.accountSends(v)
		if c.err != nil {
			acc.errSeen = true
		}
	})
	if init.errSeen {
		return Stats{}, r.firstError()
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
		prevSlot, curSlot := (t-1)%2, t%2
		total := r.forEachNode(func(acc *roundAccum, v int) {
			r.step(acc, v, prevSlot, curSlot)
		})
		stats.Rounds = t
		stats.Messages += total.messages
		stats.Words += total.words
		if total.maxWords > stats.MaxMessageWords {
			stats.MaxMessageWords = total.maxWords
		}
		if probe != nil {
			// Recorded before the error check: an aborting round's
			// deliveries are in stats, so they belong in the profile too.
			rp := RoundProfile{
				Round:           t,
				Messages:        total.messages,
				Words:           total.words,
				MaxMessageWords: total.maxWords,
				ActiveNodes:     total.active,
				HaltedNodes:     total.halted,
				DurationNS:      time.Since(roundStart).Nanoseconds(),
			}
			r.rounds = append(r.rounds, rp)
			if probe.Observer != nil {
				probe.Observer.ObserveRound(rp)
			}
		}
		if total.errSeen {
			return stats, r.firstError()
		}
		if !total.anySent && total.allDone {
			return stats, nil
		}
	}
}

// step executes one round for vertex v: gather the inbox from the neighbors'
// previous-round outboxes, reset the own current outbox, and call Round.
// Each vertex only reads prev-slot outboxes and writes its own cur-slot
// outbox, so steps of distinct vertices never conflict.
func (r *Runner) step(acc *roundAccum, v int, prevSlot, curSlot int) {
	wordsBefore := acc.words
	inbox := r.inboxes[v][:0]
	for _, w := range r.row(v) {
		u := int(w)
		ob := &r.ctxs[u].boxes[prevSlot]
		for _, bm := range ob.bcasts {
			inbox = append(inbox, Inbound{From: u, Msg: bm.msg})
			acc.deliver(bm.words)
		}
		for _, e := range ob.directsTo(v) {
			inbox = append(inbox, Inbound{From: u, Msg: e.msg})
			acc.deliver(e.words)
		}
	}
	r.inboxes[v] = inbox
	if r.recvWords != nil {
		// Each vertex is stepped by exactly one worker per round, so its
		// slot is race-free; diffing the accumulator keeps the disabled
		// path free of per-delivery probe work.
		r.recvWords[v] += acc.words - wordsBefore
	}

	c := &r.ctxs[v]
	c.out = &c.boxes[curSlot]
	c.out.reset()
	r.nodes[v].Round(c, inbox)
	c.finishStep()
	r.accountSends(v)

	if !c.out.empty() {
		acc.anySent = true
		acc.active++
	}
	if h := r.halters[v]; h == nil || h.Done() {
		acc.halted++
	} else {
		acc.allDone = false
	}
	if c.err != nil {
		acc.errSeen = true
	}
}

// accountSends attributes the words a vertex staged this step to its
// congestion-table slot, as delivered words: a broadcast of w words by a
// vertex of degree d will cross d edges.  No-op when the probe is disabled.
// On a run that aborts before the next round these sends are attributed but
// never delivered; a successful run's last round stages nothing, so there
// send and receive totals agree.
func (r *Runner) accountSends(v int) {
	if r.sentWords == nil {
		return
	}
	ob := r.ctxs[v].out
	var w int64
	if d := int64(r.off[v+1] - r.off[v]); d > 0 {
		for _, bm := range ob.bcasts {
			w += int64(bm.words) * d
		}
	}
	for _, e := range ob.directs {
		w += int64(e.words)
	}
	r.sentWords[v] += w
}

// firstError returns the violation of the smallest vertex id, keeping error
// reporting deterministic regardless of worker scheduling.
func (r *Runner) firstError() error {
	for v := range r.ctxs {
		if err := r.ctxs[v].err; err != nil {
			return err
		}
	}
	return nil
}
