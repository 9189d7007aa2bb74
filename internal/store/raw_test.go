package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// rawRoundTrip encodes g in the raw-aligned variant and decodes it back
// through the allocating fallback path.
func rawRoundTrip(t *testing.T, meta SnapshotMeta, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, meta, g); err != nil {
		t.Fatalf("encode raw: %v", err)
	}
	gotMeta, back, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode raw: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round trip: got %+v, want %+v", gotMeta, meta)
	}
	assertBitIdentical(t, g, back)
	return back
}

func TestSnapshotRawRoundTrip(t *testing.T) {
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(20, 20)},
		{"tree", gen.RandomTree(300, 5)},
		{"apollonian", gen.Apollonian(150, 2)},
	} {
		rawRoundTrip(t, SnapshotMeta{Name: fam.name, Epoch: 2, CoveredLSN: 11, Gen: 7}, fam.g)
	}
}

func TestSnapshotRawRoundTripEmptyAndIsolated(t *testing.T) {
	empty := graph.New(0)
	empty.Finalize()
	rawRoundTrip(t, SnapshotMeta{Name: "empty"}, empty)

	isolated := graph.New(100)
	isolated.Finalize()
	rawRoundTrip(t, SnapshotMeta{Name: "isolated"}, isolated)
}

// TestSnapshotRawMatchesVarint pins the two formats to the same graph: a raw
// document and a varint document of the same snapshot decode to bit-identical
// CSR arrays and equal meta.
func TestSnapshotRawMatchesVarint(t *testing.T) {
	g := gen.Grid(17, 23)
	meta := SnapshotMeta{Name: "cross", Epoch: 4, Gen: 9}
	var rawBuf, varBuf bytes.Buffer
	if err := EncodeSnapshotRaw(&rawBuf, meta, g); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&varBuf, meta, g); err != nil {
		t.Fatal(err)
	}
	rm, rg, err := DecodeSnapshot(&rawBuf)
	if err != nil {
		t.Fatal(err)
	}
	vm, vg, err := DecodeSnapshot(&varBuf)
	if err != nil {
		t.Fatal(err)
	}
	if rm != vm {
		t.Fatalf("meta differs across formats: %+v vs %+v", rm, vm)
	}
	assertBitIdentical(t, vg, rg)
}

// TestRawSectionAlignment verifies the encoder's padding contract: the
// OFFSETS and TARGETS payloads start at file offsets that are multiples of
// rawAlign, for a sweep of graph sizes (the META section length varies with
// the name and counts, so alignment must hold for any prefix length).
func TestRawSectionAlignment(t *testing.T) {
	for _, name := range []string{"", "g", "a-much-longer-graph-name-that-shifts-the-meta-section"} {
		for n := 0; n < 12; n++ {
			g := gen.Path(n + 2)
			var buf bytes.Buffer
			if err := EncodeSnapshotRaw(&buf, SnapshotMeta{Name: name}, g); err != nil {
				t.Fatal(err)
			}
			s, err := parseSnapshot(buf.Bytes())
			if err != nil {
				t.Fatalf("name %q n %d: %v", name, g.N(), err)
			}
			data, rawOff, rawTgt := buf.Bytes(), s.off, s.tgt
			offAt, tgtAt := -1, -1
			for i := range data {
				if len(rawOff) > 0 && &data[i] == &rawOff[0] {
					offAt = i
				}
				if len(rawTgt) > 0 && &data[i] == &rawTgt[0] {
					tgtAt = i
				}
			}
			if len(rawOff) > 0 && (offAt < 0 || offAt%rawAlign != 0) {
				t.Fatalf("name %q n %d: offsets payload at %d, not %d-aligned", name, g.N(), offAt, rawAlign)
			}
			if len(rawTgt) > 0 && (tgtAt < 0 || tgtAt%rawAlign != 0) {
				t.Fatalf("name %q n %d: targets payload at %d, not %d-aligned", name, g.N(), tgtAt, rawAlign)
			}
		}
	}
}

// TestDecodeSnapshotRawCorruption mirrors the varint suite: flipping any
// single byte of a raw document must fail the decode — every section,
// padding included, is CRC-covered and the header is matched literally.
// TestSnapshotReadersAgree holds the mmap path to the same verdicts.
func TestDecodeSnapshotRawCorruption(t *testing.T) {
	g := gen.Grid(6, 6)
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, SnapshotMeta{Name: "g", Epoch: 1, Gen: 1}, g); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for i := range blob {
		corrupt := append([]byte(nil), blob...)
		corrupt[i] ^= 0xFF
		if meta, back, err := DecodeSnapshot(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("byte %d: corrupted raw snapshot decoded without error (meta %+v, n=%d)", i, meta, back.N())
		}
	}
}

func TestDecodeSnapshotRawTruncation(t *testing.T) {
	g := gen.Grid(5, 5)
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, SnapshotMeta{Name: "g"}, g); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := DecodeSnapshot(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(blob))
		}
	}
}

func writeRawFile(t *testing.T, g *graph.Graph, meta SnapshotMeta) string {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, meta, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.raw")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMmapSnapshotEquivalence(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	g := gen.Grid(40, 40)
	meta := SnapshotMeta{Name: "mm", Epoch: 3, CoveredLSN: 5, Gen: 8}
	path := writeRawFile(t, g, meta)

	gotMeta, mg, mapping, err := OpenMmapSnapshot(path)
	if err != nil {
		t.Fatalf("OpenMmapSnapshot: %v", err)
	}
	defer mapping.Close()
	if gotMeta != meta {
		t.Fatalf("meta: got %+v, want %+v", gotMeta, meta)
	}
	assertBitIdentical(t, g, mg)
	if mapping.Size() == 0 || mapping.Path() != path {
		t.Fatalf("mapping bookkeeping: size %d, path %q", mapping.Size(), mapping.Path())
	}
}

func TestOpenMmapSnapshotFallsBackOnVarint(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotMeta{Name: "v"}, gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.varint")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenMmapSnapshot(path); !errors.Is(err, ErrNotMmapable) {
		t.Fatalf("got %v, want ErrNotMmapable", err)
	}
}

// writeVarintSnapshot puts a varint-packed snapshot of g where a store rooted
// at dir keeps it: the file older stores wrote for graphs under 2²⁰ CSR
// entries.  It returns the file's path.
func writeVarintSnapshot(t *testing.T, dir string, meta SnapshotMeta, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, meta, g); err != nil {
		t.Fatal(err)
	}
	graphsDir := filepath.Join(dir, graphsSubdir)
	if err := os.MkdirAll(graphsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(graphsDir, snapFileName(meta.Name))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotIsRaw reports whether the snapshot file at path carries the
// raw-sections header flag.
func snapshotIsRaw(t *testing.T, path string) bool {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseSnapshot(blob)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s.raw
}

// TestSnapshotTrailingBytesRejected appends bytes after the END section of
// each variant: the document is corrupt, and every reader says so with
// ErrBadSnapshot — the decoder, the mmap path, and a store recovery that
// must not fall back from one to the other.  The raw file is the store's
// own; the varint file is one an older store left behind.
func TestSnapshotTrailingBytesRejected(t *testing.T) {
	meta, g := SnapshotMeta{Name: "g", Epoch: 1, Gen: 1}, gen.Grid(8, 8)
	for _, raw := range []bool{true, false} {
		dir := t.TempDir()
		path := filepath.Join(dir, graphsSubdir, snapFileName(meta.Name))
		if raw {
			s, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SaveSnapshot(meta, g); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			writeVarintSnapshot(t, dir, meta, g)
		}
		if snapshotIsRaw(t, path) != raw {
			t.Fatalf("raw=%v: the intact file has the wrong variant", raw)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x00, 0xFF, 0x01}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		if _, _, err := DecodeSnapshot(bytes.NewReader(blob)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("raw=%v: DecodeSnapshot: got %v, want ErrBadSnapshot", raw, err)
		}
		if MmapSupported() {
			if _, _, m, err := OpenMmapSnapshot(path); !errors.Is(err, ErrBadSnapshot) {
				if m != nil {
					m.Close()
				}
				t.Errorf("raw=%v: OpenMmapSnapshot: got %v, want ErrBadSnapshot", raw, err)
			}
		}
		if s, _, err := Open(dir, Options{Mmap: true}); !errors.Is(err, ErrBadSnapshot) {
			if err == nil {
				s.Close()
				s.ReleaseMappings()
			}
			t.Errorf("raw=%v: Open with Mmap: got %v, want ErrBadSnapshot", raw, err)
		}
	}
}

// TestSnapshotReadersAgree runs every single-byte flip and every truncation
// of a raw snapshot through both readers: DecodeSnapshot and OpenMmapSnapshot
// share one parser, so they must reach the same verdict, and a rejection
// from the mmap path must be ErrBadSnapshot — the one error a store does not
// retry through the decoder.
func TestSnapshotReadersAgree(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, SnapshotMeta{Name: "g", Epoch: 1, Gen: 1}, gen.Grid(6, 6)); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	path := filepath.Join(t.TempDir(), "snap.raw")
	check := func(what string, doc []byte) {
		t.Helper()
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, decErr := DecodeSnapshot(bytes.NewReader(doc))
		_, _, m, mmapErr := OpenMmapSnapshot(path)
		if m != nil {
			m.Close()
		}
		if (decErr == nil) != (mmapErr == nil) {
			t.Fatalf("%s: DecodeSnapshot says %v, OpenMmapSnapshot says %v", what, decErr, mmapErr)
		}
		if mmapErr != nil && !errors.Is(mmapErr, ErrBadSnapshot) {
			t.Fatalf("%s: OpenMmapSnapshot rejected with %v, want ErrBadSnapshot", what, mmapErr)
		}
	}
	check("intact", blob)
	for i := range blob {
		corrupt := append([]byte(nil), blob...)
		corrupt[i] ^= 0xFF
		check(fmt.Sprintf("flip of byte %d", i), corrupt)
	}
	for cut := 0; cut < len(blob); cut++ {
		check(fmt.Sprintf("truncation at %d/%d", cut, len(blob)), blob[:cut])
	}
}

// TestMmapColdOpenAllocationIndependentOfM is the acceptance-criteria
// assertion: opening a snapshot via mmap allocates heap bytes independent of
// the graph's size, while the decode path allocates at least the CSR arrays.
func TestMmapColdOpenAllocationIndependentOfM(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	small := gen.Grid(40, 40)   // n = 1 600
	large := gen.Grid(320, 320) // n = 102 400, 64× the entries
	smallPath := writeRawFile(t, small, SnapshotMeta{Name: "s"})
	largePath := writeRawFile(t, large, SnapshotMeta{Name: "l"})

	allocBytes := func(path string) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, g, m, err := OpenMmapSnapshot(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		runtime.ReadMemStats(&after)
		if g.N() == 0 {
			t.Fatal("empty graph")
		}
		m.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	smallAlloc := allocBytes(smallPath)
	largeAlloc := allocBytes(largePath)

	off, tgt := large.CSR()
	rawArrayBytes := uint64(4 * (len(off) + len(tgt)))
	if largeAlloc >= rawArrayBytes/8 {
		t.Fatalf("mmap cold open allocated %d bytes for a graph whose CSR arrays are %d bytes — not zero-copy", largeAlloc, rawArrayBytes)
	}
	// 64× the entries must not mean 64× the allocation; allow generous slack
	// for runtime noise, the point is the absence of O(m) scaling.
	if largeAlloc > 8*smallAlloc+4096 {
		t.Fatalf("mmap cold open scales with m: %d bytes (small) vs %d bytes (64× larger graph)", smallAlloc, largeAlloc)
	}
}

// TestStoreRecoversViaMmap drives the whole store path: SaveSnapshot writes
// the raw variant for every graph, however small, a Mmap-enabled Open
// recovers each zero-copy, the recovery stats say so, and the graphs answer
// identically to a decode-path recovery of the same directory.
func TestStoreRecoversViaMmap(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	empty := graph.New(0)
	empty.Finalize()
	graphs := map[string]*graph.Graph{"empty": empty, "small": gen.Grid(4, 4), "grid": gen.Grid(30, 30)}
	open := func(mmap bool) (*Store, *Recovery) {
		t.Helper()
		s, rec, err := Open(dir, Options{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		return s, rec
	}
	checkRecovered := func(rec *Recovery) {
		t.Helper()
		if len(rec.Graphs) != len(graphs) {
			t.Fatalf("recovered %d graphs, want %d", len(rec.Graphs), len(graphs))
		}
		for _, rg := range rec.Graphs {
			assertBitIdentical(t, graphs[rg.Meta.Name], rg.Graph)
		}
	}
	s, _ := open(false)
	for name, g := range graphs {
		if err := s.SaveSnapshot(SnapshotMeta{Name: name, Epoch: 1, Gen: 1}, g); err != nil {
			t.Fatal(err)
		}
		if path := filepath.Join(dir, graphsSubdir, snapFileName(name)); !snapshotIsRaw(t, path) {
			t.Fatalf("%s (n=%d, m=%d): SaveSnapshot wrote the varint variant", name, g.N(), g.M())
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	sm, recM := open(true)
	checkRecovered(recM)
	st := sm.Stats()
	if st.Recovered.MmapGraphs != len(graphs) || st.Recovered.MmapBytes == 0 {
		t.Fatalf("recovery not zero-copy: %+v", st.Recovered)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sm.ReleaseMappings(); err != nil {
		t.Fatal(err)
	}

	sd, recD := open(false)
	defer sd.Close()
	checkRecovered(recD)
	if sd.Stats().Recovered.MmapGraphs != 0 {
		t.Fatal("decode-path recovery reported mmap graphs")
	}
}

// TestStoreUpgradesVarintSnapshot opens a directory holding a varint
// snapshot, as older stores wrote for small graphs: Open with Mmap falls
// back to the decoder for it, and the next SaveSnapshot of the graph
// replaces it with a raw file that the following Open maps.
func TestStoreUpgradesVarintSnapshot(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid(12, 12)
	meta := SnapshotMeta{Name: "old", Epoch: 3, Gen: 5}
	path := writeVarintSnapshot(t, dir, meta, g)

	s, rec, err := Open(dir, Options{Mmap: true})
	if err != nil {
		t.Fatalf("opening a varint snapshot: %v", err)
	}
	if st := s.Stats().Recovered; st.Graphs != 1 || st.MmapGraphs != 0 {
		t.Fatalf("varint recovery stats %+v, want 1 graph and 0 mapped", st)
	}
	if rec.Graphs[0].Meta != meta || rec.Graphs[0].Raw {
		t.Fatalf("meta: got %+v (raw %v), want %+v from a varint file", rec.Graphs[0].Meta, rec.Graphs[0].Raw, meta)
	}
	assertBitIdentical(t, g, rec.Graphs[0].Graph)
	if err := s.SaveSnapshot(meta, rec.Graphs[0].Graph); err != nil {
		t.Fatal(err)
	}
	if !snapshotIsRaw(t, path) {
		t.Fatal("rewriting a varint snapshot kept the varint variant")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The decoding path reports the raw file as raw too.
	s1, rec1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec1.Graphs[0].Raw {
		t.Fatal("a decoded raw snapshot was reported as varint")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := Open(dir, Options{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.ReleaseMappings()
	defer s2.Close()
	wantMapped := 0
	if MmapSupported() {
		wantMapped = 1
	}
	if st := s2.Stats().Recovered; st.Graphs != 1 || st.MmapGraphs != wantMapped || !rec2.Graphs[0].Raw {
		t.Fatalf("recovery stats after the rewrite %+v (raw %v), want %d mapped", st, rec2.Graphs[0].Raw, wantMapped)
	}
	assertBitIdentical(t, g, rec2.Graphs[0].Graph)
}
