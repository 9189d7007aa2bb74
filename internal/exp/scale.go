package exp

import (
	"context"
	"fmt"
	"os"
	"slices"

	"bedom/internal/engine"
	"bedom/internal/gen"
)

// L1ScaleColdStart is the large-tier experiment behind `benchrun -tier
// large`: for each O(n+m) family of gen.LargeFamilies() it builds a
// cfg.LargeN-vertex instance, persists it through a real engine as a
// raw-aligned snapshot, restarts the engine (the zero-copy mmap recovery
// path on supported platforms), and answers a radius-1 dominating-set query
// before and after the restart.
//
// Every cell is deterministic: sizes, the mmap boolean and the
// dominating-set size, plus the "identical" bit asserting the post-restart
// answer matches the pre-restart one vertex for vertex.  The cold start's
// times are bench/ rows (store.mmap_open_ms, store.open_ms) and end-to-end
// metrics of its durable workload.
func L1ScaleColdStart(cfg Config) *Table {
	t := &Table{
		ID:     "L1",
		Title:  fmt.Sprintf("Scale: cold start and answer identity at n≈%d (zero-copy snapshots)", cfg.LargeN),
		Header: []string{"family", "n", "m", "snap bytes", "mmap", "domset size", "identical"},
	}
	restrict := map[string]bool{}
	for _, name := range cfg.Families {
		restrict[name] = true
	}
	for _, f := range gen.LargeFamilies() {
		if len(restrict) > 0 && !restrict[f.Name] {
			continue
		}
		runScaleFamily(t, f, cfg)
	}
	t.Notes = append(t.Notes,
		"mmap = recovery served the raw-aligned snapshot zero-copy (DESIGN.md §13)")
	return t
}

func runScaleFamily(t *Table, f gen.Family, cfg Config) {
	g := f.Generate(cfg.LargeN, cfg.Seed)

	dir, err := os.MkdirTemp("", "bedom-l1-")
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: temp dir: %v", f.Name, err))
		return
	}
	defer os.RemoveAll(dir)

	e1, err := engine.Open(dir, engine.Config{})
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: open: %v", f.Name, err))
		return
	}
	if _, err := e1.Register(f.Name, g); err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: register: %v", f.Name, err))
		e1.Close()
		return
	}
	req := engine.Request{Graph: f.Name, Kind: engine.KindDominatingSet, R: 1}
	before, err := e1.Do(context.Background(), req)
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: pre-restart query: %v", f.Name, err))
		e1.Close()
		return
	}
	// Snapshot counters (bytes written) live in the writing process's
	// stats; capture them before the restart.
	writeStats := e1.Stats()
	e1.Close()

	e2, err := engine.Open(dir, engine.Config{})
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: reopen: %v", f.Name, err))
		return
	}
	defer e2.Close()
	cold, err := e2.Do(context.Background(), req)
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: cold query: %v", f.Name, err))
		return
	}

	openStats := e2.Stats()
	t.AddRow(f.Name, g.N(), g.M(), writeStats.Persist.SnapshotBytes,
		openStats.Persist.Recovered.MmapGraphs > 0,
		cold.Size, slices.Equal(before.Set, cold.Set))
}
