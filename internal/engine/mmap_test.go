package engine

import (
	"context"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/store"
)

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
	graphs := func(t *testing.T, e *Engine) {
		t.Helper()
		if _, err := e.Register("g", gen.Grid(24, 24)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Register("t", gen.RandomAttachmentTree(500, 11)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		cfg := Config{SubstrateWorkers: workers, RawSnapshotMinEntries: 1}

		writer := openPersistent(t, dir, cfg)
		graphs(t, writer)
		writer.Close()

		mm := openPersistent(t, dir, cfg)
		if st := mm.Stats(); st.Persist == nil || st.Persist.Recovered.MmapGraphs != 2 {
			t.Fatalf("workers=%d: expected 2 mmap-served graphs, stats %+v", workers, st.Persist)
		}
		live := New(cfg)
		t.Cleanup(live.Close)
		graphs(t, live)

		for _, name := range []string{"g", "t"} {
			for _, kind := range []Kind{KindDominatingSet, KindCover} {
				for _, r := range []int{1, 2} {
					req := Request{Graph: name, Kind: kind, R: r}
					got, err := mm.Do(context.Background(), req)
					if err != nil {
						t.Fatalf("workers=%d mmap %s/%s/r=%d: %v", workers, name, kind, r, err)
					}
					want, err := live.Do(context.Background(), req)
					if err != nil {
						t.Fatalf("workers=%d live %s/%s/r=%d: %v", workers, name, kind, r, err)
					}
					if !equalInts(got.Set, want.Set) || got.Size != want.Size ||
						got.LowerBound != want.LowerBound || got.Wcol != want.Wcol {
						t.Fatalf("workers=%d %s/%s/r=%d: mmap-recovered and never-died engines diverge", workers, name, kind, r)
					}
				}
			}
			if !equalInts(namedOrder(t, mm, name, 2).Positions(), namedOrder(t, live, name, 2).Positions()) {
				t.Fatalf("workers=%d %s: order positions diverge between mmap-recovered and never-died engines", workers, name)
			}
		}
		mm.Close()
	}
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
	cfg := Config{RawSnapshotMinEntries: 1}

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
