package store

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"syscall"
	"testing"

	"bedom/internal/fault"
	"bedom/internal/gen"
)

// openFaulty opens a store routed through an injector with the given fault
// schedule.
func openFaulty(t *testing.T, dir string, opts Options, faults ...fault.Fault) (*Store, *Recovery, *fault.Injector) {
	t.Helper()
	in := fault.NewInjector(nil, faults...)
	opts.FS = in
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, rec, in
}

// TestSnapshotENOSPCLeavesPreviousIntact: an ENOSPC mid-snapshot-write must
// leave the previously published snapshot readable (temp+rename invariant)
// and surface the failure in the persist stats block.
func TestSnapshotENOSPCLeavesPreviousIntact(t *testing.T) {
	dir := t.TempDir()
	g1 := gen.Grid(4, 4)
	g2 := gen.Grid(5, 5)

	s, _, in := openFaulty(t, dir, Options{})
	meta := SnapshotMeta{Name: "g", Epoch: 1, Gen: 1}
	if err := s.SaveSnapshot(meta, g1); err != nil {
		t.Fatal(err)
	}

	// Schedule a disk-full on the next temp-file write: snapshot temp files
	// are the only .tmp- writes in this store.
	in.Add(fault.Fault{Op: fault.OpWrite, Path: tmpFilePrefix, Err: fault.ErrNoSpace, Sticky: true})
	err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: 1, Gen: 2}, g2)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("SaveSnapshot under ENOSPC: %v, want ENOSPC", err)
	}
	if got := s.Stats().SnapshotFailures; got != 1 {
		t.Fatalf("SnapshotFailures = %d, want 1", got)
	}
	in.Heal()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := openStore(t, dir)
	defer s2.Close()
	if len(rec.Graphs) != 1 || rec.Graphs[0].Meta != meta {
		t.Fatalf("recovered %+v, want the pre-failure snapshot", rec.Graphs)
	}
	assertBitIdentical(t, g1, rec.Graphs[0].Graph)
}

// TestSnapshotTornWriteLeavesPreviousIntact: a short (torn) write into the
// temp file must never corrupt the published snapshot — the torn bytes live
// in a temp file that is removed on failure and skipped at recovery.
func TestSnapshotTornWriteLeavesPreviousIntact(t *testing.T) {
	dir := t.TempDir()
	g1 := gen.Grid(4, 4)

	s, _, in := openFaulty(t, dir, Options{})
	meta := SnapshotMeta{Name: "g", Epoch: 1, Gen: 1}
	if err := s.SaveSnapshot(meta, g1); err != nil {
		t.Fatal(err)
	}

	// Tear the 2nd write of the next temp file (the 1st is typically the
	// header), then fail rename too in case buffering coalesced the writes.
	in.Add(fault.Fault{Op: fault.OpWrite, Path: tmpFilePrefix, AfterN: 2, Err: fault.ErrNoSpace, Torn: true})
	if err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: 1, Gen: 2}, gen.Grid(6, 6)); err == nil {
		t.Fatal("SaveSnapshot with torn write succeeded")
	}
	if got := s.Stats().SnapshotFailures; got != 1 {
		t.Fatalf("SnapshotFailures = %d, want 1", got)
	}
	in.Heal()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := openStore(t, dir)
	defer s2.Close()
	if len(rec.Graphs) != 1 || rec.Graphs[0].Meta != meta {
		t.Fatalf("recovered %+v, want the pre-failure snapshot", rec.Graphs)
	}
	assertBitIdentical(t, g1, rec.Graphs[0].Graph)
}

// TestWALFsyncFailureFailsTheSegment: the first failed fsync fails the
// segment.  Neither the failing append nor any later one is acknowledged (a
// later fsync could report success for pages the kernel dropped), the next
// rotation cuts the segment back to its durable prefix, and recovery returns
// exactly the acknowledged records.
func TestWALFsyncFailureFailsTheSegment(t *testing.T) {
	dir := t.TempDir()
	s, _, in := openFaulty(t, dir, Options{})
	var acked []uint64
	appendOK := func(i int) {
		t.Helper()
		lsn, err := s.AppendDelta("g", 1, uint64(i), testDelta(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acked = append(acked, lsn)
	}
	for i := 0; i < 3; i++ {
		appendOK(i)
	}
	in.Add(fault.Fault{Op: fault.OpSync, Path: walPrefix, Err: fault.ErrIO}) // one-shot: the next fsync fails
	for i := 3; i < 5; i++ {
		if _, err := s.AppendDelta("g", 1, uint64(i), testDelta(i)); !errors.Is(err, syscall.EIO) {
			t.Fatalf("append %d on a failed segment: %v, want EIO", i, err)
		}
	}
	if got := in.Fired(); got != 1 {
		t.Fatalf("injector fired %d times, want 1", got)
	}
	if _, err := s.RotateWAL(); err != nil {
		t.Fatalf("rotating the failed segment: %v", err)
	}
	appendOK(5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openStore(t, dir)
	if rec.TruncatedBytes != 0 {
		t.Fatalf("recovery found %d torn bytes, want 0", rec.TruncatedBytes)
	}
	if got := recordLSNs(rec.Records); !reflect.DeepEqual(got, acked) {
		t.Fatalf("recovered LSNs %v, want the acknowledged %v", got, acked)
	}
}

// TestWALConcurrentAppendsAcrossFsyncFailure: under group commit, a failed
// fsync must fail every waiting appender whose record it did not make
// durable; the next batch leader must not fsync again and acknowledge them.
// For each of the first eight fsyncs failing once, recovery after rotation
// returns exactly the acknowledged records.
func TestWALConcurrentAppendsAcrossFsyncFailure(t *testing.T) {
	const writers, perWriter = 4, 8
	// Each writer waits for its own append, so one fsync covers at most one
	// record per writer and the first eight fsyncs always run.
	for k := uint64(1); k <= 8; k++ {
		t.Run(fmt.Sprintf("sync=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			s, _, in := openFaulty(t, dir, Options{},
				fault.Fault{Op: fault.OpSync, Path: walPrefix, AfterN: k, Err: fault.ErrIO})
			var mu sync.Mutex
			var acked []uint64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						lsn, err := s.AppendDelta("g", 1, uint64(w*perWriter+i), testDelta(i))
						if err != nil {
							if !errors.Is(err, syscall.EIO) {
								t.Errorf("writer %d: %v, want EIO", w, err)
							}
							continue
						}
						mu.Lock()
						acked = append(acked, lsn)
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if got := in.Fired(); got != 1 {
				t.Fatalf("injector fired %d times, want 1", got)
			}
			if _, err := s.RotateWAL(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := openStore(t, dir)
			slices.Sort(acked)
			if got := recordLSNs(rec.Records); !reflect.DeepEqual(got, acked) {
				t.Fatalf("recovered %d records %v, want the %d acknowledged %v", len(got), got, len(acked), acked)
			}
		})
	}
}

func recordLSNs(records []Record) []uint64 {
	var lsns []uint64
	for _, r := range records {
		lsns = append(lsns, r.LSN)
	}
	return lsns
}
