package dist

import (
	"fmt"
	"time"

	"bedom/internal/graph"
)

// Runner executes one protocol on one graph.  Create it with NewRunner and
// execute with Run; a Runner is single-use.
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

	nodes   []Node
	halters []Halter // halters[v] is nil when nodes[v] has no Done method
	ctxs    []Context
	// inbound backs every inbox: v's is the window inbound[off[v]:off[v+1]],
	// since v hears at most one message per neighbor per round.
	inbound []Inbound
	// accs holds one round accumulator per worker, and stepBlocks is
	// stepBlock bound once per run (a method value handed to another
	// goroutine escapes, so binding it every round would allocate).
	accs       []roundAccum
	stepBlocks func(k, lo, hi int)

	// Telemetry state, only allocated when opts.Probe is set (the disabled
	// path must cost nothing — see probe.go for the contract).
	rounds    []RoundProfile
	sentWords []int64
	recvWords []int64

	round int
	used  bool
}

// NewRunner prepares a simulator run of the given model on the finalized
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
	for v := range r.ctxs {
		r.ctxs[v] = Context{r: r, v: v}
	}
	r.inbound = make([]Inbound, len(r.tgt))
	r.accs = make([]roundAccum, graph.ResolveWorkers(r.opts.Workers, n))
	r.stepBlocks = r.stepBlock
	probe := r.opts.Probe
	if probe != nil {
		r.sentWords = make([]int64, n)
		r.recvWords = make([]int64, n)
	}

	// Round 0: Init every node.
	r.round = 0
	if init := r.forEachNode(); init.errSeen {
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
		if total.errSeen {
			return stats, r.firstError()
		}
		if !total.anySent && total.allDone {
			return stats, nil
		}
	}
}

// step executes vertex v's part of the current round t.  Round 0 calls
// Init.  Later rounds gather the inbox from the neighbors' round t-1 slots,
// clear v's round t slot and call Round.  A step only reads other vertices'
// t-1 slots and writes its own vertex's state, so steps of distinct
// vertices never conflict.
func (r *Runner) step(acc *roundAccum, v int) {
	c := &r.ctxs[v]
	t := r.round
	sent := &c.sent[t%2]
	if t == 0 {
		r.nodes[v].Init(c)
	} else {
		wordsBefore := acc.words
		lo := r.off[v]
		inbox := r.inbound[lo:lo:r.off[v+1]]
		for _, u := range r.row(v) {
			if m := &r.ctxs[u].sent[(t-1)%2]; m.msg != nil {
				inbox = append(inbox, Inbound{From: int(u), Msg: m.msg})
				acc.deliver(m.words)
			}
		}
		if r.recvWords != nil {
			// Each vertex is stepped by exactly one worker per round, so
			// its slot is race-free; diffing the accumulator keeps the
			// disabled path free of per-delivery probe work.
			r.recvWords[v] += acc.words - wordsBefore
		}
		*sent = sentMsg{}
		r.nodes[v].Round(c, inbox)
		if h := r.halters[v]; h == nil || h.Done() {
			acc.halted++
		} else {
			acc.allDone = false
		}
	}
	if sent.msg != nil {
		acc.anySent = true
		acc.active++
		if r.sentWords != nil {
			// Attributed as delivered words at send time: a broadcast of w
			// words by a vertex of degree d will cross d edges.  A run that
			// aborts before the next round never delivers these; a
			// successful run's last round stages nothing, so there send and
			// receive totals agree.
			r.sentWords[v] += int64(sent.words) * int64(r.off[v+1]-r.off[v])
		}
	}
	if c.err != nil {
		acc.errSeen = true
	}
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
