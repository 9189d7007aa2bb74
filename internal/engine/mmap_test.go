package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/store"
)

// registerMmapGraphs registers the graphs the recovery tests below persist.
func registerMmapGraphs(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("t", gen.RandomAttachmentTree(500, 11)); err != nil {
		t.Fatal(err)
	}
}

// assertSameAnswers checks that got answers domset and cover at r = 1, 2 and
// builds the r = 2 order exactly like want, for every graph of
// registerMmapGraphs.
func assertSameAnswers(t *testing.T, what string, got, want *Engine) {
	t.Helper()
	for _, name := range []string{"g", "t"} {
		for _, kind := range []Kind{KindDominatingSet, KindCover} {
			for _, r := range []int{1, 2} {
				req := Request{Graph: name, Kind: kind, R: r}
				a, err := got.Do(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: recovered %s/%s/r=%d: %v", what, name, kind, r, err)
				}
				b, err := want.Do(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: live %s/%s/r=%d: %v", what, name, kind, r, err)
				}
				if !equalInts(a.Set, b.Set) || a.Size != b.Size ||
					a.LowerBound != b.LowerBound || a.Wcol != b.Wcol {
					t.Fatalf("%s %s/%s/r=%d: recovered and never-died engines diverge", what, name, kind, r)
				}
			}
		}
		if !equalInts(namedOrder(t, got, name, 2).Positions(), namedOrder(t, want, name, 2).Positions()) {
			t.Fatalf("%s %s: order positions diverge between recovered and never-died engines", what, name)
		}
	}
}

// TestMmapDecodeEquivalence is the zero-copy acceptance contract: for
// substrate worker counts 1, 2 and 8, an engine recovering raw-aligned
// snapshots through the mmap path answers byte-identically to an engine that
// never died holding the same graphs — dominating sets, covers and order
// positions, across radii.  (TestStoreRecoversViaMmap pins mmap and decode
// recovery to bit-identical graphs at the store level.)
func TestMmapDecodeEquivalence(t *testing.T) {
	if !store.MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		cfg := Config{SubstrateWorkers: workers}

		writer := openPersistent(t, dir, cfg)
		registerMmapGraphs(t, writer)
		writer.Close()

		mm := openPersistent(t, dir, cfg)
		if st := mm.Stats(); st.Persist == nil || st.Persist.Recovered.MmapGraphs != 2 {
			t.Fatalf("workers=%d: expected 2 mmap-served graphs, stats %+v", workers, st.Persist)
		}
		live := testEngine(t, cfg)
		registerMmapGraphs(t, live)
		assertSameAnswers(t, "mmap", mm, live)
		mm.Close()
	}
}

// rewriteAsVarint replaces every snapshot in the data directory dir with the
// varint-packed encoding of the same graph and meta: the directory an older
// store left behind for graphs under 2²⁰ CSR entries.
func rewriteAsVarint(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "graphs", "*.snap"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no snapshots in %s (%v)", dir, err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		meta, g, err := store.DecodeSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.EncodeSnapshot(&buf, meta, g); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshotFlags returns the header flags of every snapshot in the data
// directory dir ("BDSN", version u16, flags u16; DESIGN.md §13).
func snapshotFlags(t *testing.T, dir string) []uint16 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "graphs", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	flags := make([]uint16, len(paths))
	for i, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil || len(blob) < 8 {
			t.Fatalf("%s: %d bytes (%v)", path, len(blob), err)
		}
		flags[i] = binary.LittleEndian.Uint16(blob[6:8])
	}
	return flags
}

// TestOpenUpgradesVarintDirectory opens a data directory whose snapshots
// are varint-packed, as older stores wrote them: recovery decodes them, the
// engine answers like one that never died, and the next checkpoint rewrites
// them in the raw variant, which the following Open serves by mmap.
func TestOpenUpgradesVarintDirectory(t *testing.T) {
	dir := t.TempDir()
	live := testEngine(t, Config{})
	registerMmapGraphs(t, live)
	if _, err := live.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}

	writer := openPersistent(t, dir, Config{})
	registerMmapGraphs(t, writer)
	if _, err := writer.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}
	crash(writer)
	rewriteAsVarint(t, dir)

	old := openPersistent(t, dir, Config{})
	if st := old.Stats().Persist; st == nil || st.Recovered.Graphs != 2 || st.Recovered.MmapGraphs != 0 || st.ReplayedRecords != 1 {
		t.Fatalf("varint recovery stats %+v, want 2 decoded graphs and 1 replayed record", st)
	}
	assertSameAnswers(t, "varint", old, live)
	if _, err := old.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, f := range snapshotFlags(t, dir) {
		if f != 0x0001 {
			t.Fatalf("checkpointed snapshot has flags 0x%04x, want the raw variant", f)
		}
	}
	old.Close()

	upgraded := openPersistent(t, dir, Config{})
	if store.MmapSupported() {
		if st := upgraded.Stats().Persist; st == nil || st.Recovered.MmapGraphs != 2 {
			t.Fatalf("upgraded recovery stats %+v, want 2 mapped graphs", st)
		}
	}
	assertSameAnswers(t, "upgraded", upgraded, live)
}

// TestMmapRecoveryThenMutate exercises the copy-on-write seam: a graph served
// from a read-only mapping must accept mutations (the dynamic overlay owns
// the writes, never the mapped CSR) and survive a further crash-recovery
// cycle that folds the delta into a fresh snapshot.
func TestMmapRecoveryThenMutate(t *testing.T) {
	if !store.MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	cfg := Config{}

	writer := openPersistent(t, dir, cfg)
	if _, err := writer.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	writer.Close()

	revived := openPersistent(t, dir, cfg)
	if st := revived.Stats(); st.Persist == nil || st.Persist.Recovered.MmapGraphs != 1 {
		t.Fatalf("expected mmap recovery, stats %+v", revived.Stats().Persist)
	}
	info, err := revived.Mutate("g", mutateTestDelta())
	if err != nil {
		t.Fatalf("mutating an mmap-served graph: %v", err)
	}
	if _, err := revived.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := revived.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	revived.Close()

	final := openPersistent(t, dir, cfg)
	gi, ok := final.Info("g")
	if !ok {
		t.Fatal("graph lost across mmap mutate/checkpoint cycle")
	}
	if gi.N != info.Graph.N || gi.M != info.Graph.M {
		t.Fatalf("recovered %+v, pre-crash %+v", gi, info.Graph)
	}
	final.Close()
}
