package dist

import (
	"cmp"
	"slices"
	"sync"

	"bedom/internal/obs"
)

// This file is the round-level telemetry of the simulator: an optional
// Probe (Options.Probe) makes the Runner record a RoundProfile per executed
// round and a bounded per-vertex congestion table per run.  The paper's
// results are stated as per-round and per-phase budgets (constant rounds,
// bounded congestion per round in CONGEST_BC), so per-run aggregates alone
// cannot verify the shape of a protocol — only where its totals end up.
//
// Contract (see DESIGN.md §14):
//
//   - Disabled path: a nil Options.Probe costs no allocation and no
//     per-delivery work beyond the accounting Stats always performs.
//   - Determinism: every profile field except the wall-clock durations is
//     identical for every Options.Workers value, byte for byte.  Durations
//     are measured on the coordinator goroutine and are explicitly outside
//     the determinism contract.
//   - Consistency: summing RoundProfile.Messages/Words over a run's rounds
//     yields exactly the run's Stats.Messages/Words, and the maximum of
//     RoundProfile.MaxMessageWords is Stats.MaxMessageWords.

// RoundProfile is the communication record of one executed round.
type RoundProfile struct {
	// Round is the 1-based round number (Init is round 0 and sends no
	// deliverable traffic of its own; its messages are delivered — and
	// accounted — in round 1).
	Round int `json:"round"`
	// Messages and Words count the deliveries of this round, with the same
	// semantics as the corresponding Stats fields.
	Messages int64 `json:"messages"`
	Words    int64 `json:"words"`
	// MaxMessageWords is the largest message delivered this round, in words.
	MaxMessageWords int `json:"max_message_words"`
	// ActiveNodes counts the nodes that broadcast during this round's step
	// (to be delivered next round).
	ActiveNodes int `json:"active_nodes"`
	// HaltedNodes counts the nodes reporting Done after this round's step.
	HaltedNodes int `json:"halted_nodes"`
	// DurationNS is the coordinator-measured wall-clock of the round in
	// nanoseconds.  It is the one field outside the determinism contract.
	DurationNS int64 `json:"duration_ns"`
}

// VertexWords is one row of a run's congestion table: the words a vertex
// sent and received over the whole run.
type VertexWords struct {
	Vertex int `json:"vertex"`
	// SentWords counts delivered words attributed at send time: a broadcast
	// of w words by a vertex of degree d accounts d·w (an isolated vertex's
	// broadcast crosses no edge and accounts nothing, matching Stats).  On a
	// run aborted mid-flight the final round's sent messages are attributed
	// here even though they were never delivered.
	SentWords int64 `json:"sent_words"`
	// RecvWords counts the words delivered to the vertex.
	RecvWords int64 `json:"recv_words"`
}

// RunProfile is the full telemetry of one Runner.Run.
type RunProfile struct {
	Model string `json:"model"`
	// Phase is the label passed to Runner.Run — the pipeline stage this run
	// implements.
	Phase string `json:"phase"`
	N     int    `json:"n"`
	// Stats duplicates the run's aggregate statistics so a profile is
	// self-contained (and so consumers can assert the per-round sums).
	Stats Stats `json:"stats"`
	// Err is the run's error text, empty on success.
	Err        string `json:"err,omitempty"`
	DurationNS int64  `json:"duration_ns"`
	// Rounds holds one RoundProfile per executed round, in order.
	Rounds []RoundProfile `json:"rounds"`
	// Congestion is the top-K vertices by total (sent+received) words,
	// ordered by that total descending with vertex id as the deterministic
	// tie-break.  K is Probe.TopK.
	Congestion []VertexWords `json:"congestion,omitempty"`
}

// DefaultTopK is the congestion-table bound used when Probe.TopK is zero.
const DefaultTopK = 16

// Probe collects RunProfiles from every Runner that runs with it in
// Options.Probe, one per Run.  The sequential phases of a pipeline share
// one (internal/distalgo runs them on one Runner), yielding one RunProfile
// per phase; it is safe for concurrent use.
type Probe struct {
	// TopK bounds the per-run congestion table (0 = DefaultTopK, negative =
	// no table).
	TopK int

	mu       sync.Mutex
	profiles []RunProfile
}

// add appends a finished run profile.
func (p *Probe) add(rp RunProfile) {
	p.mu.Lock()
	p.profiles = append(p.profiles, rp)
	p.mu.Unlock()
}

// Profiles returns a copy of the accumulated run profiles, in completion
// order.
func (p *Probe) Profiles() []RunProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]RunProfile, len(p.profiles))
	copy(out, p.profiles)
	return out
}

// topK resolves the congestion-table bound.
func (p *Probe) topK() int {
	switch {
	case p.TopK > 0:
		return p.TopK
	case p.TopK < 0:
		return 0
	default:
		return DefaultTopK
	}
}

// congestionTable selects the top-k vertices by sent+received words.  Only
// vertices with traffic qualify; ties break toward the smaller vertex id so
// the table is identical for every worker count.  The scan keeps the best k
// rows seen so far in a heap whose root is the lowest-ranked of them, so a
// run costs O(n log k) and holds k rows instead of sorting every vertex with
// traffic.
func congestionTable(sent, recv []int64, k int) []VertexWords {
	if k <= 0 {
		return nil
	}
	top := make([]VertexWords, 0, min(k, len(sent)))
	for v := range sent {
		if sent[v] == 0 && recv[v] == 0 {
			continue
		}
		row := VertexWords{Vertex: v, SentWords: sent[v], RecvWords: recv[v]}
		switch {
		case len(top) < k:
			top = append(top, row)
			for i := len(top) - 1; i > 0; {
				p := (i - 1) / 2
				if compareRows(top[p], top[i]) >= 0 {
					break
				}
				top[p], top[i] = top[i], top[p]
				i = p
			}
		case compareRows(row, top[0]) < 0:
			top[0] = row
			for i := 0; ; {
				low, l := i, 2*i+1
				if l < len(top) && compareRows(top[low], top[l]) < 0 {
					low = l
				}
				if l+1 < len(top) && compareRows(top[low], top[l+1]) < 0 {
					low = l + 1
				}
				if low == i {
					break
				}
				top[i], top[low] = top[low], top[i]
				i = low
			}
		}
	}
	slices.SortFunc(top, compareRows)
	return top[:len(top):len(top)]
}

// compareRows orders congestion rows: more total words first, the smaller
// vertex id among equals.
func compareRows(a, b VertexWords) int {
	if c := cmp.Compare(b.SentWords+b.RecvWords, a.SentWords+a.RecvWords); c != 0 {
		return c
	}
	return cmp.Compare(a.Vertex, b.Vertex)
}

// PerfettoEvents renders run profiles as Chrome trace-event ("X") entries
// on a single synthetic timeline, one thread row per profile (phase) and
// one slice per round, so a pipeline's profiles open directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing via obs.WriteTraceEvents.  Rounds
// are laid out by their measured durations, consecutively per run and
// across runs in slice order — the layout a sequential pipeline actually
// executed.  A round that measured 0 ns is widened to 1 µs so it stays
// visible and clickable in the UI.
func PerfettoEvents(profiles []RunProfile) []obs.TraceEvent {
	events := make([]obs.TraceEvent, 0, len(profiles)*8)
	var cursor float64 // µs
	for i, rp := range profiles {
		name := rp.Phase
		if name == "" {
			name = "run"
		}
		tid := i + 1
		start := cursor
		for _, r := range rp.Rounds {
			dur := float64(r.DurationNS) / 1e3
			if dur < 1 {
				dur = 1
			}
			events = append(events, obs.TraceEvent{
				Name: "round",
				Cat:  "round",
				Ph:   "X",
				TS:   cursor,
				Dur:  dur,
				PID:  1,
				TID:  tid,
				Args: map[string]any{
					"round":             r.Round,
					"messages":          r.Messages,
					"words":             r.Words,
					"max_message_words": r.MaxMessageWords,
					"active_nodes":      r.ActiveNodes,
					"halted_nodes":      r.HaltedNodes,
				},
			})
			cursor += dur
		}
		if cursor == start {
			cursor = start + 1
		}
		args := map[string]any{
			"model":    rp.Model,
			"n":        rp.N,
			"rounds":   rp.Stats.Rounds,
			"messages": rp.Stats.Messages,
			"words":    rp.Stats.Words,
		}
		if rp.Err != "" {
			args["err"] = rp.Err
		}
		events = append(events, obs.TraceEvent{
			Name: name,
			Cat:  "phase",
			Ph:   "X",
			TS:   start,
			Dur:  cursor - start,
			PID:  1,
			TID:  tid,
			Args: args,
		})
		events = append(events, obs.TraceEvent{
			Name: "thread_name",
			Ph:   "M",
			PID:  1,
			TID:  tid,
			Args: map[string]any{"name": name},
		})
	}
	return events
}
