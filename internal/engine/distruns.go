package engine

import (
	"context"
	"strconv"
	"sync"
	"time"

	"bedom/internal/dist"
	"bedom/internal/obs"
)

// Round-profile retention (DESIGN.md §14): every distributed-kind query runs
// with a dist.Probe attached, and the resulting per-phase round profiles are
// kept in a bounded ring keyed by query ID.  cmd/domserved serves the ring
// at GET /debug/dist/runs (+ /{id}, ?format=perfetto), so a slow or
// congested run spotted in the logs can be pulled up by its X-Query-ID and
// opened in Perfetto after the fact — no re-run, no redeploy.

// DistRunRecord is one retained distributed run: identity, the request
// shape, aggregate totals, and the full per-phase round profiles.
type DistRunRecord struct {
	// ID is the query ID the run executed under (the X-Query-ID response
	// header in domserved; minted fresh when the caller carried none),
	// suffixed ".<i>" for entry i of a batch.
	ID   string    `json:"id"`
	Time time.Time `json:"time"`
	// Graph is the registered graph name ("" for direct-graph queries).
	Graph  string `json:"graph,omitempty"`
	Kind   Kind   `json:"kind"`
	Solver string `json:"solver,omitempty"`
	R      int    `json:"r"`
	Err    string `json:"err,omitempty"`
	// Stats sums the per-phase statistics (rounds and deliveries add up
	// across a sequential pipeline; max words is the maximum).
	Stats dist.Stats `json:"stats"`
	// Profiles holds one RunProfile per pipeline phase, in execution order.
	Profiles []dist.RunProfile `json:"profiles"`
}

// DistRunSummary is the list-endpoint view of a record.
type DistRunSummary struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Graph    string    `json:"graph,omitempty"`
	Kind     Kind      `json:"kind"`
	Solver   string    `json:"solver,omitempty"`
	R        int       `json:"r"`
	Phases   int       `json:"phases"`
	Rounds   int       `json:"rounds"`
	Messages int64     `json:"messages"`
	Words    int64     `json:"words"`
	Err      string    `json:"err,omitempty"`
}

// distRunCap is the number of distributed runs the ring retains.
const distRunCap = 64

// distRunLog is a fixed-capacity ring of recent records with an ID index.
// Records are immutable once inserted, so lookups can hand them out without
// copying.
type distRunLog struct {
	mu   sync.Mutex
	ring []*DistRunRecord
	next int
	byID map[string]*DistRunRecord
}

func newDistRunLog() *distRunLog {
	return &distRunLog{
		ring: make([]*DistRunRecord, 0, distRunCap),
		byID: make(map[string]*DistRunRecord, distRunCap),
	}
}

func (l *distRunLog) add(rec *DistRunRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) < distRunCap {
		l.ring = append(l.ring, rec)
	} else {
		evicted := l.ring[l.next]
		if l.byID[evicted.ID] == evicted {
			delete(l.byID, evicted.ID)
		}
		l.ring[l.next] = rec
	}
	l.next = (l.next + 1) % distRunCap
	l.byID[rec.ID] = rec
}

// list returns summaries, newest first.
func (l *distRunLog) list() []DistRunSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]DistRunSummary, 0, len(l.ring))
	for i := 0; i < len(l.ring); i++ {
		// Walk backwards from the most recently written slot.
		idx := (l.next - 1 - i + 2*distRunCap) % distRunCap
		if idx >= len(l.ring) {
			continue
		}
		r := l.ring[idx]
		out = append(out, DistRunSummary{
			ID: r.ID, Time: r.Time, Graph: r.Graph, Kind: r.Kind,
			Solver: r.Solver, R: r.R, Phases: len(r.Profiles),
			Rounds: r.Stats.Rounds, Messages: r.Stats.Messages,
			Words: r.Stats.Words, Err: r.Err,
		})
	}
	return out
}

func (l *distRunLog) get(id string) (*DistRunRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.byID[id]
	return r, ok
}

// batchEntryKey tags the context of a batch entry with its index.
type batchEntryKey struct{}

// recordDistRun folds a finished distributed query's probe into the ring,
// under the query ID, or "<query ID>.<i>" for entry i of a batch, so the
// entries of one batch never overwrite each other.  No-op when the query
// never reached the simulator (zero profiles).
func (e *Engine) recordDistRun(ctx context.Context, req Request, solverName string, p *dist.Probe, runErr error) {
	profiles := p.Profiles()
	if len(profiles) == 0 {
		return
	}
	id := obs.QueryID(ctx)
	if id == "" {
		// Facade and benchmark callers carry no request trace; the run is
		// still worth retaining, under a freshly minted ID.
		id = obs.NewQueryID()
	}
	if i, ok := ctx.Value(batchEntryKey{}).(int); ok {
		id += "." + strconv.Itoa(i)
	}
	rec := &DistRunRecord{
		ID:       id,
		Time:     time.Now(),
		Graph:    req.Graph,
		Kind:     req.Kind,
		Solver:   solverName,
		R:        req.R,
		Profiles: profiles,
	}
	if runErr != nil {
		rec.Err = runErr.Error()
	}
	for _, rp := range profiles {
		rec.Stats.Add(rp.Stats)
	}
	e.distRuns.add(rec)
}

// DistRuns lists the retained distributed runs, newest first.
func (e *Engine) DistRuns() []DistRunSummary {
	return e.distRuns.list()
}

// DistRun returns the retained record for a query ID ("<query ID>.<i>" for
// entry i of a batch).  The record is shared and must not be mutated.
func (e *Engine) DistRun(id string) (*DistRunRecord, bool) {
	return e.distRuns.get(id)
}
