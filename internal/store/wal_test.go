package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bedom/internal/graph"
)

func testDelta(i int) graph.Delta {
	return graph.Delta{
		AddVertices: i % 3,
		Add:         [][2]int{{i, i + 1}, {i, i + 2}},
		Remove:      [][2]int{{i + 1, i + 2}},
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(nil, path, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 25; i++ {
		d := testDelta(i)
		lsn, err := w.append(7, uint64(100+i), "g", d)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(11+i) {
			t.Fatalf("append %d: lsn %d, want %d", i, lsn, 11+i)
		}
		want = append(want, Record{LSN: lsn, Epoch: 7, Gen: uint64(100 + i), Graph: "g", Delta: d})
	}
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	got, truncated, err := readSegment(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 {
		t.Fatalf("clean segment reports %d truncated bytes", truncated)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestWALTornTail appends garbage after valid records: replay must keep the
// intact prefix and report the rest as truncated, for several torn shapes.
func TestWALTornTail(t *testing.T) {
	for _, tail := range [][]byte{
		{0x05},                         // length prefix, no payload
		{0x7F, 1, 2, 3},                // length prefix claiming more than present
		{0x02, 0xAA, 0xBB, 0, 0, 0, 0}, // full frame, wrong checksum
	} {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, err := openWAL(nil, path, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := w.append(1, 0, "g", testDelta(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.seal(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		records, truncated, err := readSegment(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != 5 {
			t.Fatalf("tail %v: replayed %d records, want 5", tail, len(records))
		}
		if truncated != int64(len(tail)) {
			t.Fatalf("tail %v: truncated %d bytes, want %d", tail, truncated, len(tail))
		}
	}
}

// TestWALCorruptMidRecord flips a byte inside an early record: replay stops
// there (suffix dropped) rather than erroring or replaying damaged data.
func TestWALCorruptMidRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(nil, path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.append(1, 0, "graph-name", testDelta(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	records, truncated, err := readSegment(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) >= 10 {
		t.Fatalf("corruption not detected: %d records replayed", len(records))
	}
	if truncated <= 0 {
		t.Fatal("corruption reported no truncated bytes")
	}
	for i, r := range records {
		if !reflect.DeepEqual(r.Delta, testDelta(i)) {
			t.Fatalf("record %d altered by corruption downstream", i)
		}
	}
}

// TestWALConcurrentAppend hammers append from many goroutines: all records
// must land durably with distinct LSNs, and group commit must have issued
// far fewer fsyncs than appends (the batching the tentpole requires).
func TestWALConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(nil, path, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := w.append(uint64(wr), 0, "g", testDelta(i)); err != nil {
					t.Errorf("writer %d: %v", wr, err)
					return
				}
			}
		}(wr)
	}
	wg.Wait()
	syncs := w.syncs.Load()
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	records, truncated, err := readSegment(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 || len(records) != writers*perWriter {
		t.Fatalf("replayed %d records (%d truncated), want %d", len(records), truncated, writers*perWriter)
	}
	seen := make(map[uint64]bool, len(records))
	for i, r := range records {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
		if i > 0 && records[i-1].LSN >= r.LSN {
			t.Fatalf("LSNs not increasing at %d", i)
		}
	}
	if syncs > uint64(writers*perWriter) {
		t.Fatalf("more fsyncs (%d) than appends (%d): group commit broken", syncs, writers*perWriter)
	}
	t.Logf("%d appends acknowledged with %d fsyncs", writers*perWriter, syncs)
}

func TestRecordPayloadRoundTrip(t *testing.T) {
	recs := []Record{
		{LSN: 1, Epoch: 1, Graph: "g", Delta: graph.Delta{}},
		{LSN: 999, Epoch: 12, Gen: 77, Graph: "", Delta: graph.Delta{AddVertices: 7}},
		{LSN: 1 << 40, Epoch: 1 << 33, Graph: "日本語/名前", Delta: graph.Delta{
			AddVertices: 2,
			Add:         [][2]int{{0, 1}, {5, 1 << 20}},
			Remove:      [][2]int{{3, 4}},
		}},
	}
	for _, want := range recs {
		payload := encodeRecordPayload(nil, want)
		got, err := decodeRecordPayload(payload)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// FuzzDecodeRecordPayload feeds arbitrary bytes to the WAL record decoder —
// what replay runs on every checksum-valid frame of a segment: it must never
// panic, and a record it accepts must re-encode and re-decode to an equal
// record.
func FuzzDecodeRecordPayload(f *testing.F) {
	for i := 0; i < 3; i++ {
		f.Add(encodeRecordPayload(nil, Record{LSN: uint64(i + 1), Epoch: 2, Gen: uint64(10 * i), Graph: "g", Delta: testDelta(i)}))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecordPayload(payload)
		if err != nil {
			return
		}
		again, err := decodeRecordPayload(encodeRecordPayload(nil, rec))
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", rec, err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("record drift: %+v vs %+v", again, rec)
		}
	})
}
