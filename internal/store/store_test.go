package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

func openStore(t *testing.T, dir string) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, rec
}

func TestStoreSnapshotAndWALRecovery(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid(8, 8)

	s, rec := openStore(t, dir)
	if len(rec.Graphs) != 0 || len(rec.Records) != 0 {
		t.Fatalf("fresh store recovered %+v", rec)
	}
	epoch := s.NextEpoch()
	meta := SnapshotMeta{Name: "grid", Epoch: epoch, CoveredLSN: 0, Gen: 1}
	if err := s.SaveSnapshot(meta, g); err != nil {
		t.Fatal(err)
	}
	d1 := graph.Delta{Add: [][2]int{{0, 9}}}
	d2 := graph.Delta{AddVertices: 1, Add: [][2]int{{63, 64}}}
	if _, err := s.AppendDelta("grid", epoch, 2, d1); err != nil {
		t.Fatal(err)
	}
	lsn2, err := s.AppendDelta("grid", epoch, 3, d2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.LastLSN(); got != lsn2 {
		t.Fatalf("LastLSN %d, want %d", got, lsn2)
	}
	// Abandon without checkpoint: recovery must hand back the snapshot and
	// both records.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := openStore(t, dir)
	if len(rec2.Graphs) != 1 || rec2.Graphs[0].Meta != meta {
		t.Fatalf("recovered graphs %+v", rec2.Graphs)
	}
	assertBitIdentical(t, g, rec2.Graphs[0].Graph)
	if len(rec2.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec2.Records))
	}
	if rec2.Records[0].Epoch != epoch || rec2.Records[0].Graph != "grid" {
		t.Fatalf("record 0: %+v", rec2.Records[0])
	}
	// LSNs continue after the recovered tail; epochs after the recovered max.
	if lsn, err := s2.AppendDelta("grid", epoch, 4, d1); err != nil || lsn <= lsn2 {
		t.Fatalf("post-recovery append lsn %d (err %v), want > %d", lsn, err, lsn2)
	}
	if e := s2.NextEpoch(); e <= epoch {
		t.Fatalf("post-recovery epoch %d, want > %d", e, epoch)
	}
}

func TestStoreCheckpointCycle(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid(6, 6)

	s, _ := openStore(t, dir)
	epoch := s.NextEpoch()
	if err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: epoch, Gen: 1}, g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.AppendDelta("g", epoch, uint64(2+i), graph.Delta{Add: [][2]int{{0, 7 + i}}}); err != nil {
			t.Fatal(err)
		}
	}
	covered := s.LastLSN()

	// Checkpoint: rotate, write the fresh snapshot, drop old segments.
	obsolete, err := s.RotateWAL()
	if err != nil {
		t.Fatal(err)
	}
	if len(obsolete) == 0 {
		t.Fatal("rotation reported no obsolete segments")
	}
	// A delta arriving mid-checkpoint lands in the new live segment and must
	// survive the segment removal below.
	midLSN, err := s.AppendDelta("g", epoch, 6, graph.Delta{Add: [][2]int{{0, 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if midLSN != covered+1 {
		t.Fatalf("mid-checkpoint lsn %d, want %d", midLSN, covered+1)
	}
	final, err := graph.FromEdges(g.N(), append(g.Edges(), [2]int{0, 7}, [2]int{0, 8}, [2]int{0, 9}, [2]int{0, 10}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: epoch, CoveredLSN: covered, Gen: 5}, final); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveSegments(obsolete); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Checkpoints != 1 || st.SnapshotsWritten != 2 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openStore(t, dir)
	if len(rec.Graphs) != 1 || rec.Graphs[0].Meta.CoveredLSN != covered {
		t.Fatalf("recovered %+v", rec.Graphs)
	}
	assertBitIdentical(t, final, rec.Graphs[0].Graph)
	// Only the mid-checkpoint record survives; the compacted ones are gone
	// with their segments.
	if len(rec.Records) != 1 || rec.Records[0].LSN != midLSN {
		t.Fatalf("recovered records %+v, want just lsn %d", rec.Records, midLSN)
	}
}

func TestStoreDeleteSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	if err := s.SaveSnapshot(SnapshotMeta{Name: "doomed", Epoch: s.NextEpoch()}, gen.Grid(3, 3)); err != nil {
		t.Fatal(err)
	}
	// Deltas against the removed graph stay in the WAL; recovery must skip
	// them (no snapshot to apply them to).
	if _, err := s.AppendDelta("doomed", 1, 2, graph.Delta{Add: [][2]int{{0, 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSnapshot("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSnapshot("never-existed"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openStore(t, dir)
	if len(rec.Graphs) != 0 {
		t.Fatalf("deleted graph resurrected: %+v", rec.Graphs)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("want the orphaned record preserved for the caller to skip, got %d", len(rec.Records))
	}
}

func TestStoreTornLiveSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	epoch := s.NextEpoch()
	if err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: epoch}, gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDelta("g", epoch, 2, graph.Delta{Add: [][2]int{{0, 5}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage on the tail of the live segment.
	segs, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walExt))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	live := segs[len(segs)-1]
	f, err := os.OpenFile(live, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x33, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, rec := openStore(t, dir)
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records, want the 1 acknowledged one", len(rec.Records))
	}
	if rec.TruncatedBytes != 3 {
		t.Fatalf("truncated %d bytes, want 3", rec.TruncatedBytes)
	}
}

func TestStoreLongGraphNames(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	long := strings.Repeat("a-very-long-graph-name/", 20)
	if err := s.SaveSnapshot(SnapshotMeta{Name: long, Epoch: s.NextEpoch()}, gen.Grid(3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openStore(t, dir)
	if len(rec.Graphs) != 1 || rec.Graphs[0].Meta.Name != long {
		t.Fatal("long graph name did not round-trip through the snapshot file")
	}
}

func TestStoreLocking(t *testing.T) {
	dir := t.TempDir()
	openStore(t, dir)
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a held store must fail")
	}
}

// TestStoreTornSegmentRepairedBeforeReuse is the regression test for a torn
// live segment being reused: a crash that tears the very first record of a
// segment must not make later — acknowledged — appends to the reused file
// unreachable.  Open repairs the torn tail by truncating to the intact
// prefix, so subsequent appends land where replay can read them.
func TestStoreTornSegmentRepairedBeforeReuse(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	epoch := s.NextEpoch()
	if err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: epoch, Gen: 1}, gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-first-append: the live segment holds only torn bytes.
	segs, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walExt))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	if err := os.WriteFile(segs[0], []byte{0x44, 0x01}, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: lastLSN is unchanged, so the same segment file is reused.
	s2, rec := openStore(t, dir)
	if len(rec.Records) != 0 || rec.TruncatedBytes != 2 {
		t.Fatalf("recovery %+v", rec)
	}
	lsn, err := s2.AppendDelta("g", epoch, 2, graph.Delta{Add: [][2]int{{0, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The acknowledged record must survive the next recovery.
	_, rec3 := openStore(t, dir)
	if len(rec3.Records) != 1 || rec3.Records[0].LSN != lsn {
		t.Fatalf("acknowledged record lost after torn-segment reuse: %+v", rec3.Records)
	}
}

// TestStoreSealedSegmentCorruptionIsFatal pins the asymmetry between torn
// tails and real damage: unreadable bytes in a NON-final (sealed) segment
// mean acknowledged records were corrupted, and Open must refuse to serve a
// silently truncated history.
func TestStoreSealedSegmentCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	epoch := s.NextEpoch()
	if err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: epoch, Gen: 1}, gen.Grid(5, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.AppendDelta("g", epoch, uint64(2+i), graph.Delta{Add: [][2]int{{0, 6 + i}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate so the records live in a sealed, non-final segment; do NOT
	// complete the checkpoint (the sealed segment stays on disk).
	if _, err := s.RotateWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendDelta("g", epoch, 7, graph.Delta{Add: [][2]int{{0, 20}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walExt))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment (acked records silently dropped)")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestStoreLiveSegmentSortsLastAfterCheckpoint: a checkpoint can remove the
// segment holding the newest LSN while no snapshot covers it (the record
// belonged to a removed graph), leaving only an empty live segment named
// after the next LSN.  Reopening must continue after that name: a live
// segment named below it would sort before an older one, so recovery would
// call the tear of a crash mid-append corruption of a sealed segment, and
// the LSN would be reused.
func TestStoreLiveSegmentSortsLastAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	eg, eh := s.NextEpoch(), s.NextEpoch()
	for _, meta := range []SnapshotMeta{{Name: "g", Epoch: eg, Gen: 1}, {Name: "h", Epoch: eh, Gen: 2}} {
		if err := s.SaveSnapshot(meta, gen.Grid(4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AppendDelta("h", eh, 3, graph.Delta{Add: [][2]int{{0, 5}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSnapshot("h"); err != nil {
		t.Fatal(err)
	}
	obsolete, err := s.RotateWAL()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: eg, Gen: 1}, gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveSegments(obsolete); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := openStore(t, dir)
	lsn, err := s2.AppendDelta("g", eg, 4, graph.Delta{Add: [][2]int{{0, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 2 {
		t.Errorf("append after reopen got LSN %d, want 2 (LSN 1 was assigned before the checkpoint)", lsn)
	}
	live := s2.walPath
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves three torn bytes on the live segment.
	f, err := os.OpenFile(live, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x33, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s3, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after a torn live segment: %v", err)
	}
	defer s3.Close()
	if rec.TruncatedBytes != 3 {
		t.Fatalf("truncated %d bytes, want 3", rec.TruncatedBytes)
	}
	if len(rec.Records) != 1 || rec.Records[0].LSN != lsn || rec.Records[0].Graph != "g" {
		t.Fatalf("recovered records %+v, want g's acknowledged LSN %d", rec.Records, lsn)
	}
}
