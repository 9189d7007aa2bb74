package engine

import (
	"context"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/obs"
)

// TestDistRunRing: distributed queries leave retrievable round profiles in
// the ring, keyed by the request's query ID, with ring totals equal to the
// response's simulator cost.
func TestDistRunRing(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(8, 8)

	tr := obs.NewTrace(obs.NewQueryID())
	ctx := obs.WithTrace(context.Background(), tr)
	resp, err := e.Do(ctx, Request{G: g, Kind: KindDistributedDominatingSet, R: 1})
	if err != nil {
		t.Fatal(err)
	}

	runs := e.DistRuns()
	if len(runs) != 1 {
		t.Fatalf("got %d retained runs, want 1", len(runs))
	}
	if runs[0].ID != tr.ID() {
		t.Fatalf("run keyed %q, want the request's query ID %q", runs[0].ID, tr.ID())
	}
	rec, ok := e.DistRun(tr.ID())
	if !ok {
		t.Fatalf("DistRun(%q) not found", tr.ID())
	}
	if rec.Stats.Rounds != resp.Rounds || rec.Stats.Messages != resp.Messages {
		t.Fatalf("record totals %+v diverge from response (rounds=%d messages=%d)",
			rec.Stats, resp.Rounds, resp.Messages)
	}
	if len(rec.Profiles) == 0 {
		t.Fatal("record has no phase profiles")
	}
	var rounds int
	var messages, words int64
	for _, rp := range rec.Profiles {
		rounds += rp.Stats.Rounds
		messages += rp.Stats.Messages
		words += rp.Stats.Words
		var m, w int64
		for _, r := range rp.Rounds {
			m += r.Messages
			w += r.Words
		}
		if m != rp.Stats.Messages || w != rp.Stats.Words {
			t.Fatalf("phase %q: per-round sums (m=%d w=%d) diverge from %+v", rp.Phase, m, w, rp.Stats)
		}
	}
	if rounds != rec.Stats.Rounds || messages != rec.Stats.Messages || words != rec.Stats.Words {
		t.Fatalf("phase totals (r=%d m=%d w=%d) diverge from record %+v", rounds, messages, words, rec.Stats)
	}

	// The connected kind records too, under a minted ID when untraced.
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedConnected, R: 1}); err != nil {
		t.Fatal(err)
	}
	if runs := e.DistRuns(); len(runs) != 2 || runs[0].Kind != KindDistributedConnected || runs[0].ID == "" {
		t.Fatalf("after connected query: %+v", runs)
	}
}

// TestDistRunRingEvictsOldest: the ring keeps the newest distRunCap runs,
// and an evicted run no longer resolves by ID.
func TestDistRunRingEvictsOldest(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(5, 5)
	var ids []string
	for i := 0; i < distRunCap+1; i++ {
		tr := obs.NewTrace(obs.NewQueryID())
		ids = append(ids, tr.ID())
		if _, err := e.Do(obs.WithTrace(context.Background(), tr),
			Request{G: g, Kind: KindDistributedDominatingSet, R: 1}); err != nil {
			t.Fatal(err)
		}
	}
	runs := e.DistRuns()
	if len(runs) != distRunCap {
		t.Fatalf("ring after %d runs holds %d, want %d", len(ids), len(runs), distRunCap)
	}
	for i, run := range runs {
		if want := ids[len(ids)-1-i]; run.ID != want {
			t.Fatalf("runs[%d] = %q, want %q (newest first)", i, run.ID, want)
		}
	}
	if _, ok := e.DistRun(ids[0]); ok {
		t.Fatal("evicted run still resolvable by ID")
	}
}
