package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// benchGraph is the shared workload: a 100×100 grid (n=10 000, m=19 800),
// comparable to the engine benchmarks' substrate workloads.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return gen.Grid(100, 100)
}

func BenchmarkSnapshotEncode(b *testing.B) {
	g := benchGraph(b)
	meta := SnapshotMeta{Name: "bench", Epoch: 1, Gen: 1}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := EncodeSnapshot(&buf, meta, g); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkSnapshotDecode(b *testing.B) {
	g := benchGraph(b)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotMeta{Name: "bench", Epoch: 1}, g); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeSnapshot(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotDecodeRaw(b *testing.B) {
	g := benchGraph(b)
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, SnapshotMeta{Name: "bench", Epoch: 1}, g); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeSnapshot(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotOpenMmap is the zero-copy cold-open path: CRC verification
// still touches every page, but no CSR array is allocated or copied.
func BenchmarkSnapshotOpenMmap(b *testing.B) {
	if !MmapSupported() {
		b.Skip("mmap unsupported on this platform")
	}
	g := benchGraph(b)
	path := filepath.Join(b.TempDir(), "bench.snap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := EncodeSnapshotRaw(f, SnapshotMeta{Name: "bench", Epoch: 1}, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, m, err := OpenMmapSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendNoSync isolates the framing/encoding cost of an append
// (fsync disabled — the group-commit fsync is hardware-bound, not code-bound).
func BenchmarkWALAppendNoSync(b *testing.B) {
	w, err := openWAL(nil, filepath.Join(b.TempDir(), "wal.log"), 0, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	delta := graph.Delta{Add: [][2]int{{1, 2}, {3, 4}}, Remove: [][2]int{{5, 6}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.append(1, 1, "bench", delta); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.seal(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWALReplay measures reading a sealed segment back: the recovery
// path's per-record cost.
func BenchmarkWALReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "wal.log")
	w, err := openWAL(nil, path, 0, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	const records = 10_000
	delta := graph.Delta{Add: [][2]int{{1, 2}, {3, 4}}, Remove: [][2]int{{5, 6}}}
	for i := 0; i < records; i++ {
		if _, err := w.append(1, 1, "bench", delta); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.seal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, truncated, err := readSegment(nil, path)
		if err != nil || truncated != 0 || len(recs) != records {
			b.Fatalf("replay: %d records, %d truncated, err %v", len(recs), truncated, err)
		}
	}
}
