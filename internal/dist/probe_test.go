package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"bedom/internal/graph"
	"bedom/internal/obs"
)

func runGossipProbed(t *testing.T, g *graph.Graph, workers int) (*Probe, Stats) {
	t.Helper()
	p := &Probe{TopK: g.N() + 1} // unbounded: the tests sum whole tables
	stats, err := NewRunner(g, CongestBC, Options{Workers: workers, Probe: p}).Run("gossip", func(v int) Node {
		return &gossipNode{id: v, total: 12}
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return p, stats
}

// stripDurations zeroes the wall-clock fields, the one part of a profile
// outside the determinism contract.
func stripDurations(rp RunProfile) RunProfile {
	rp.DurationNS = 0
	rounds := make([]RoundProfile, len(rp.Rounds))
	copy(rounds, rp.Rounds)
	for i := range rounds {
		rounds[i].DurationNS = 0
	}
	rp.Rounds = rounds
	return rp
}

// TestProbeSumsMatchStats is the tentpole acceptance check: for every worker
// count the per-round profile sums must equal the run's Stats exactly, and
// the whole profile (durations aside) must be identical across worker
// counts.
func TestProbeSumsMatchStats(t *testing.T) {
	g := testGrid(9, 13)
	var ref RunProfile
	for i, workers := range []int{1, 2, 8} {
		p, stats := runGossipProbed(t, g, workers)
		profiles := p.Profiles()
		if len(profiles) != 1 {
			t.Fatalf("workers=%d: got %d profiles, want 1", workers, len(profiles))
		}
		rp := profiles[0]
		if rp.Stats != stats {
			t.Fatalf("workers=%d: profile stats %+v diverge from run stats %+v", workers, rp.Stats, stats)
		}
		if len(rp.Rounds) != stats.Rounds {
			t.Fatalf("workers=%d: %d round profiles for %d rounds", workers, len(rp.Rounds), stats.Rounds)
		}
		var messages, words int64
		maxWords := 0
		for i, r := range rp.Rounds {
			if r.Round != i+1 {
				t.Fatalf("workers=%d: round %d profiled as %d", workers, i+1, r.Round)
			}
			messages += r.Messages
			words += r.Words
			if r.MaxMessageWords > maxWords {
				maxWords = r.MaxMessageWords
			}
		}
		if messages != stats.Messages || words != stats.Words || maxWords != stats.MaxMessageWords {
			t.Fatalf("workers=%d: per-round sums (m=%d w=%d max=%d) diverge from stats %+v",
				workers, messages, words, maxWords, stats)
		}
		// The gossip protocol broadcasts in rounds 1..11 and goes quiet and
		// done in round 12.
		last := rp.Rounds[len(rp.Rounds)-1]
		if last.ActiveNodes != 0 || last.HaltedNodes != g.N() {
			t.Fatalf("workers=%d: final round active=%d halted=%d, want 0/%d",
				workers, last.ActiveNodes, last.HaltedNodes, g.N())
		}
		if first := rp.Rounds[0]; first.ActiveNodes != g.N() || first.HaltedNodes != 0 {
			t.Fatalf("workers=%d: first round active=%d halted=%d, want %d/0",
				workers, first.ActiveNodes, first.HaltedNodes, g.N())
		}
		stripped := stripDurations(rp)
		if i == 0 {
			ref = stripped
			continue
		}
		a, _ := json.Marshal(ref)
		b, _ := json.Marshal(stripped)
		if !bytes.Equal(a, b) {
			t.Fatalf("workers=%d: profile diverges from workers=1:\n%s\nvs\n%s", workers, b, a)
		}
	}
}

// TestProbeCongestionTable checks the per-vertex accounting: on a successful
// run the sent and received totals both equal Stats.Words, and the table is
// ordered by total words with vertex id as tie-break.
func TestProbeCongestionTable(t *testing.T) {
	g := testGrid(5, 7)
	p, stats := runGossipProbed(t, g, 4)
	rp := p.Profiles()[0]
	var sent, recv int64
	for _, row := range rp.Congestion {
		sent += row.SentWords
		recv += row.RecvWords
	}
	if sent != stats.Words || recv != stats.Words {
		t.Fatalf("congestion totals sent=%d recv=%d, want both = Stats.Words %d", sent, recv, stats.Words)
	}
	for i := 1; i < len(rp.Congestion); i++ {
		a, b := rp.Congestion[i-1], rp.Congestion[i]
		ta, tb := a.SentWords+a.RecvWords, b.SentWords+b.RecvWords
		if ta < tb || (ta == tb && a.Vertex > b.Vertex) {
			t.Fatalf("congestion table out of order at %d: %+v before %+v", i, a, b)
		}
	}
	// The grid's interior vertices have degree 4 and must out-congest the
	// degree-2 corners; with a full table present, corners must rank last.
	if len(rp.Congestion) != g.N() {
		t.Fatalf("full table wanted (TopK > n): got %d rows for n=%d", len(rp.Congestion), g.N())
	}

	// The default bound caps the table.
	pDef := &Probe{}
	if _, err := NewRunner(g, CongestBC, Options{Probe: pDef}).Run("gossip", func(v int) Node {
		return &gossipNode{id: v, total: 3}
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(pDef.Profiles()[0].Congestion); got != DefaultTopK {
		t.Fatalf("default table has %d rows, want %d", got, DefaultTopK)
	}
	// A negative bound disables the table.
	pOff := &Probe{TopK: -1}
	if _, err := NewRunner(g, CongestBC, Options{Probe: pOff}).Run("gossip", func(v int) Node {
		return &gossipNode{id: v, total: 3}
	}); err != nil {
		t.Fatal(err)
	}
	if got := pOff.Profiles()[0].Congestion; got != nil {
		t.Fatalf("TopK=-1 still produced a table of %d rows", len(got))
	}
}

// fullSortTable is the congestion table by its definition: every vertex with
// traffic, sorted by total words descending and vertex id ascending, then
// truncated to k rows.
func fullSortTable(sent, recv []int64, k int) []VertexWords {
	if k <= 0 {
		return nil
	}
	rows := []VertexWords{}
	for v := range sent {
		if sent[v] != 0 || recv[v] != 0 {
			rows = append(rows, VertexWords{Vertex: v, SentWords: sent[v], RecvWords: recv[v]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		ti := rows[i].SentWords + rows[i].RecvWords
		tj := rows[j].SentWords + rows[j].RecvWords
		if ti != tj {
			return ti > tj
		}
		return rows[i].Vertex < rows[j].Vertex
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// TestCongestionTableMatchesFullSort: the bounded top-k selection equals
// sorting every vertex with traffic and truncating, on random rows full of
// ties (equal totals from different sent/received splits), on all-zero rows
// and for k ≤ 0.
func TestCongestionTableMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(64)
		sent, recv := make([]int64, n), make([]int64, n)
		for v := range sent {
			if rng.Intn(3) > 0 { // a third of the vertices stay silent
				sent[v], recv[v] = int64(rng.Intn(4)), int64(rng.Intn(4))
			}
		}
		for _, k := range []int{-3, 0, 1, 2, 3, 7, DefaultTopK, n - 1, n, n + 5} {
			got, want := congestionTable(sent, recv, k), fullSortTable(sent, recv, k)
			if (got == nil) != (want == nil) || len(got) != len(want) {
				t.Fatalf("trial %d k=%d: got %v, want %v", trial, k, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d: row %d is %+v, want %+v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
	zero := make([]int64, 12)
	if got := congestionTable(zero, zero, 4); got == nil || len(got) != 0 {
		t.Fatalf("all-zero rows: got %v, want an empty table", got)
	}
}

// TestProbeDisabledAllocatesNothing pins the disabled-path contract: without
// a probe the runner must not allocate any telemetry state.
func TestProbeDisabledAllocatesNothing(t *testing.T) {
	g := testGrid(4, 4)
	r := NewRunner(g, CongestBC, Options{Workers: 1})
	if _, err := r.Run("gossip", func(v int) Node { return &gossipNode{id: v, total: 4} }); err != nil {
		t.Fatal(err)
	}
	if r.rounds != nil || r.sentWords != nil || r.recvWords != nil {
		t.Fatalf("disabled probe allocated telemetry state: rounds=%v sent=%v recv=%v",
			r.rounds != nil, r.sentWords != nil, r.recvWords != nil)
	}
}

// TestProbeRecordsAbortedRun: an ErrMaxRounds abort still yields a profile,
// carrying the error text and exactly the executed rounds.
func TestProbeRecordsAbortedRun(t *testing.T) {
	g := testGrid(2, 3)
	p := &Probe{}
	_, err := NewRunner(g, CongestBC, Options{MaxRounds: 3, Probe: p}).Run("chatter", func(v int) Node {
		return &funcNode{
			round: func(ctx *Context, _ []Inbound) { ctx.Broadcast([]int32{1}) },
			done:  func() bool { return false },
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
	profiles := p.Profiles()
	if len(profiles) != 1 {
		t.Fatalf("got %d profiles, want 1", len(profiles))
	}
	rp := profiles[0]
	if rp.Err == "" || len(rp.Rounds) != 3 {
		t.Fatalf("aborted profile: err=%q rounds=%d, want non-empty err and 3 rounds", rp.Err, len(rp.Rounds))
	}
}

// TestProbeSharedAcrossRuns: one probe accumulates one profile per run, in
// order — the pipeline pattern internal/distalgo uses for phase-segmented
// profiles.
func TestProbeSharedAcrossRuns(t *testing.T) {
	g := testGrid(3, 4)
	p := &Probe{}
	for _, phase := range []string{"alpha", "beta"} {
		if _, err := NewRunner(g, CongestBC, Options{Probe: p}).Run(phase, func(v int) Node {
			return &gossipNode{id: v, total: 2}
		}); err != nil {
			t.Fatal(err)
		}
	}
	profiles := p.Profiles()
	if len(profiles) != 2 || profiles[0].Phase != "alpha" || profiles[1].Phase != "beta" {
		t.Fatalf("shared probe got %d profiles (phases %v), want alpha then beta",
			len(profiles), []string{profiles[0].Phase, profiles[1].Phase})
	}
}

// TestPerfettoEvents checks the trace-event rendering: one slice per round,
// one phase slice plus one thread_name metadata event per profile, and a
// document that parses as the {"traceEvents": [...]} envelope.
func TestPerfettoEvents(t *testing.T) {
	g := testGrid(3, 3)
	p := &Probe{}
	for _, phase := range []string{"hpartition", "wreach"} {
		if _, err := NewRunner(g, CongestBC, Options{Probe: p}).Run(phase, func(v int) Node {
			return &gossipNode{id: v, total: 3}
		}); err != nil {
			t.Fatal(err)
		}
	}
	profiles := p.Profiles()
	events := PerfettoEvents(profiles)
	wantRounds := 0
	for _, rp := range profiles {
		wantRounds += len(rp.Rounds)
	}
	if len(events) != wantRounds+2*len(profiles) {
		t.Fatalf("got %d events, want %d rounds + %d phase/meta pairs", len(events), wantRounds, len(profiles))
	}
	phases := map[string]bool{}
	for _, e := range events {
		if e.Cat == "phase" {
			phases[e.Name] = true
			if e.Dur <= 0 {
				t.Fatalf("phase slice %q has non-positive duration %v", e.Name, e.Dur)
			}
		}
	}
	if !phases["hpartition"] || !phases["wreach"] {
		t.Fatalf("phase slices missing: %v", phases)
	}

	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace document does not parse: %v", err)
	}
	if len(doc.TraceEvents) != len(events) {
		t.Fatalf("document has %d events, want %d", len(doc.TraceEvents), len(events))
	}
}
