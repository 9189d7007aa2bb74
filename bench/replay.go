package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bedom/internal/engine"
	"bedom/internal/graph"
	"bedom/internal/obs"
)

// inproc is the traced run's target: an in-process engine that replays a
// workload's operations with no daemon and no HTTP.  Every call into the
// engine is a span; the engine's own stage spans (query:<kind>,
// substrate:<stage>) are collected through an obs.Trace on the context.
type inproc struct {
	dataDir string // empty: in-memory engine
	eng     *engine.Engine
	tr      *tracer
	iter    atomic.Int64
	clients []inprocClient
}

// inprocClient is one loop client's in-process measurements.
type inprocClient struct {
	doMS       []float64 // engine.Do wall time
	overheadUS []float64 // engine.Do wall time minus the answer's ElapsedMS
	encodeUS   []float64 // JSON encoding of the answer, as domserved does
}

func newInproc(dataDir string, clients int, tr *tracer) (*inproc, error) {
	p := &inproc{dataDir: dataDir, tr: tr, clients: make([]inprocClient, clients)}
	return p, p.relaunch()
}

// span records a bench-side span of a set-up, mutation, checkpoint or
// restart call on row 0: those calls never overlap (set-up is sequential,
// and only single-client workloads make the others).
func (p *inproc) span(name string, start time.Time) {
	p.tr.record(name, "bench", 0, int(p.iter.Load()), start, time.Now())
}

func (p *inproc) register(ng namedGraph) error {
	defer p.span("engine.Register", time.Now())
	_, err := p.eng.Register(ng.name, ng.g)
	return err
}

func (p *inproc) query(client int, q query) (httpReply, error) {
	iter := int(p.iter.Add(1))
	req := engine.Request{Graph: q.Graph, Kind: engine.Kind(q.Kind), R: q.R, Solver: q.Solver}
	t0 := time.Now()
	trace := obs.NewTrace(strconv.Itoa(iter))
	resp, err := p.eng.Do(obs.WithTrace(context.Background(), trace), req)
	t1 := time.Now()
	if err != nil {
		p.tr.record("engine.Do", "bench", client, iter, t0, t1)
		return httpReply{status: 500, body: []byte(err.Error())}, nil
	}
	body, err := encodeAnswer(resp, q.OmitSets)
	t2 := time.Now()
	if err != nil {
		return httpReply{}, err
	}
	p.tr.record("query "+q.Kind, "bench", client, iter, t0, t2)
	p.tr.record("engine.Do", "bench", client, iter, t0, t1)
	p.tr.record("encode", "bench", client, iter, t1, t2)
	// Stage offsets are relative to the trace's creation, just after t0, so
	// anchoring them at t0 keeps every stage inside its engine.Do span.
	for _, s := range trace.Spans() {
		start := t0.Add(time.Duration(s.StartMS * float64(time.Millisecond)))
		p.tr.record(s.Name, "engine", client, iter, start, start.Add(time.Duration(s.DurMS*float64(time.Millisecond))))
	}
	c := &p.clients[client]
	c.doMS = append(c.doMS, ms(t1.Sub(t0)))
	c.overheadUS = append(c.overheadUS, (ms(t1.Sub(t0))-resp.ElapsedMS)*1e3)
	c.encodeUS = append(c.encodeUS, float64(t2.Sub(t1))/float64(time.Microsecond))
	return httpReply{status: 200, body: body, elapsedMS: resp.ElapsedMS}, nil
}

// encodeAnswer renders an engine answer exactly as domserved's POST /query
// does (omit_sets drops the vertex sets; HTML escaping is off).
func encodeAnswer(resp *engine.Response, omitSets bool) ([]byte, error) {
	if omitSets {
		trimmed := *resp
		trimmed.Set, trimmed.DomSet = nil, nil
		resp = &trimmed
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	err := enc.Encode(resp)
	return b.Bytes(), err
}

func (p *inproc) mutate(g string, d graph.Delta) (httpReply, error) {
	defer p.span("engine.Mutate", time.Now())
	if _, err := p.eng.Mutate(g, d); err != nil {
		return httpReply{status: 400, body: []byte(err.Error())}, nil
	}
	return httpReply{status: 200}, nil
}

func (p *inproc) checkpoint() error {
	defer p.span("engine.Checkpoint", time.Now())
	_, err := p.eng.Checkpoint()
	return err
}

func (p *inproc) info(g string) (int, int, error) {
	gi, ok := p.eng.Info(g)
	if !ok {
		return 0, 0, fmt.Errorf("graph %q not registered", g)
	}
	return gi.N, gi.M, nil
}

// crash closes the engine without a checkpoint: the WAL tail since the last
// checkpoint is replayed by the next relaunch, as after a kill -9.
func (p *inproc) crash() error {
	defer p.span("engine.Close", time.Now())
	p.eng.Close()
	return nil
}

func (p *inproc) relaunch() error {
	defer p.span("engine.Open", time.Now())
	cfg := engine.Config{Metrics: obs.NewRegistry()}
	if p.dataDir == "" {
		p.eng = engine.New(cfg)
		return nil
	}
	eng, err := engine.Open(p.dataDir, cfg)
	p.eng = eng
	return err
}

func (p *inproc) close() { p.eng.Close() }

// tracer keeps spans in memory; selfTime and writeTrace read them at exit.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

// span is one finished interval.  Spans on one row (tid) never interleave
// partially, so nesting follows from containment.
type span struct {
	name, cat  string
	pid, tid   int
	iter       int
	start, end time.Duration // since the tracer's origin
}

// Trace rows: the replay uses one row per loop client, the sweep its own.
const (
	pidReplay = 1
	pidSweep  = 2
)

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) record(name, cat string, tid, iter int, start, end time.Time) {
	t.add(span{name: name, cat: cat, pid: pidReplay, tid: tid, iter: iter,
		start: start.Sub(t.origin), end: end.Sub(t.origin)})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	name    string
	count   int
	totalMS float64
	selfMS  float64 // total minus the time covered by direct children
}

// nest orders the spans by row and start and returns each span's parent
// index (-1 for a root).
func (t *tracer) nest() []int {
	slices.SortStableFunc(t.spans, func(a, b span) int {
		if a.pid != b.pid {
			return a.pid - b.pid
		}
		if a.tid != b.tid {
			return a.tid - b.tid
		}
		if a.start != b.start {
			return int(a.start - b.start)
		}
		return int(b.end - a.end) // the enclosing span first
	})
	parent := make([]int, len(t.spans))
	var stack []int
	for i, s := range t.spans {
		for len(stack) > 0 {
			top := t.spans[stack[len(stack)-1]]
			if top.pid == s.pid && top.tid == s.tid && s.end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return parent
}

// selfTime returns the replay's spans aggregated by name, largest self time
// first.  A layer's self time is its spans' time minus their children's.
func (t *tracer) selfTime() []selfRow {
	parent := t.nest()
	rows := make(map[string]*selfRow)
	childMS := make([]float64, len(t.spans))
	for i, s := range t.spans {
		if p := parent[i]; p >= 0 {
			childMS[p] += ms(s.end - s.start)
		}
	}
	for i, s := range t.spans {
		if s.pid != pidReplay {
			continue
		}
		r := rows[s.name]
		if r == nil {
			r = &selfRow{name: s.name}
			rows[s.name] = r
		}
		d := ms(s.end - s.start)
		r.count++
		r.totalMS += d
		// Children can overrun their parent by clock rounding only.
		r.selfMS += max(0, d-childMS[i])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	slices.SortFunc(out, func(a, b selfRow) int {
		switch {
		case a.selfMS > b.selfMS:
			return -1
		case a.selfMS < b.selfMS:
			return 1
		}
		return 0
	})
	return out
}

func printSelfTime(w io.Writer, rows []selfRow) {
	total := 0.0
	for _, r := range rows {
		total += r.selfMS
	}
	fmt.Fprintln(w, "# self time by span in the in-process replay (span time minus its children's):")
	fmt.Fprintf(w, "#   %-28s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-28s %8d %12.2f %12.2f %6.1f%%\n", r.name, r.count, r.totalMS, r.selfMS, 100*r.selfMS/total)
	}
}

// maxTraceEvents bounds the replay's events in the trace file (the sweep's
// few spans are always written); aggregates use every span.
const maxTraceEvents = 50_000

// writeTrace writes the spans as Chrome trace-event JSON, loadable in
// ui.perfetto.dev or chrome://tracing.
func (t *tracer) writeTrace(path string) error {
	parent := t.nest()
	var events []obs.TraceEvent
	replay := 0
	for i, s := range t.spans {
		if s.pid == pidReplay {
			if replay == maxTraceEvents {
				continue
			}
			replay++
		}
		args := map[string]any{"iter": s.iter}
		if p := parent[i]; p >= 0 {
			args["parent"] = t.spans[p].name
		}
		events = append(events, obs.TraceEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: s.pid, TID: s.tid, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
