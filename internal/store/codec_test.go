package store

import (
	"bytes"
	"math/rand"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// roundTrip encodes g with meta and decodes it back, failing the test on any
// mismatch.  It returns the decoded graph.
func roundTrip(t *testing.T, meta SnapshotMeta, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, meta, g); err != nil {
		t.Fatalf("encode: %v", err)
	}
	gotMeta, back, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round trip: got %+v, want %+v", gotMeta, meta)
	}
	assertBitIdentical(t, g, back)
	return back
}

// assertBitIdentical checks CSR-array equality — the strongest identity the
// library has for finalized graphs.
func assertBitIdentical(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("counts: got (n=%d, m=%d), want (n=%d, m=%d)", got.N(), got.M(), want.N(), want.M())
	}
	wantOff, wantTgt := want.CSR()
	gotOff, gotTgt := got.CSR()
	if !int32SlicesEqual(wantOff, gotOff) {
		t.Fatal("offsets arrays differ")
	}
	if !int32SlicesEqual(wantTgt, gotTgt) {
		t.Fatal("targets arrays differ")
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotRoundTripBasic(t *testing.T) {
	meta := SnapshotMeta{Name: "hexagon", Epoch: 3, CoveredLSN: 17, Gen: 42}
	g := graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	roundTrip(t, meta, g)
}

func TestSnapshotRoundTripEmptyAndIsolated(t *testing.T) {
	empty := graph.New(0)
	empty.Finalize()
	roundTrip(t, SnapshotMeta{Name: "empty"}, empty)

	isolated := graph.New(100)
	isolated.Finalize()
	roundTrip(t, SnapshotMeta{Name: "isolated"}, isolated)
}

func TestSnapshotRoundTripFamilies(t *testing.T) {
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(20, 20)},
		{"tree", gen.RandomTree(300, 5)},
	} {
		roundTrip(t, SnapshotMeta{Name: fam.name, Epoch: 1}, fam.g)
	}
}

// TestSnapshotRoundTripRandomVsFromEdges is the acceptance-criteria fuzz:
// random graphs built through FromEdges must round-trip through the codec
// bit-identically (same CSR arrays), across densities and sizes.
func TestSnapshotRoundTripRandomVsFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(200)
		maxM := n * (1 + rng.Intn(4))
		edges := make([][2]int, 0, maxM)
		for len(edges) < maxM {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, [2]int{u, v})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		back := roundTrip(t, SnapshotMeta{Name: "fuzz", Epoch: uint64(trial)}, g)
		if err := back.Validate(); err != nil {
			t.Fatalf("trial %d: decoded graph invalid: %v", trial, err)
		}
	}
}

// TestDecodeSnapshotCorruption flips every byte of a valid snapshot in turn
// and demands that decoding either fails cleanly or — never — returns a
// different graph than was encoded while reporting success.
func TestDecodeSnapshotCorruption(t *testing.T) {
	g := gen.Grid(6, 6)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotMeta{Name: "g", Epoch: 1, Gen: 1}, g); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for i := range blob {
		corrupt := append([]byte(nil), blob...)
		corrupt[i] ^= 0xFF
		meta, back, err := DecodeSnapshot(bytes.NewReader(corrupt))
		if err != nil {
			continue
		}
		// Flipping a byte that still decodes successfully must mean the flip
		// was caught... there is no such byte: every section is covered by a
		// CRC and the header is matched literally.
		t.Fatalf("byte %d: corrupted snapshot decoded without error (meta %+v, n=%d)", i, meta, back.N())
	}
}

func TestDecodeSnapshotTruncation(t *testing.T) {
	g := gen.Grid(5, 5)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotMeta{Name: "g"}, g); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := DecodeSnapshot(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(blob))
		}
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the decoder: it must never
// panic, and whenever it succeeds the decoded graph must satisfy the
// library's structural invariants and re-encode to a decodable document.
func FuzzDecodeSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotMeta{Name: "seed", Epoch: 2, CoveredLSN: 9, Gen: 4}, gen.Grid(4, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var raw bytes.Buffer
	if err := EncodeSnapshotRaw(&raw, SnapshotMeta{Name: "seed", Epoch: 2, CoveredLSN: 9, Gen: 4}, gen.Grid(4, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(raw.Bytes())
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, g, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph violates invariants: %v", err)
		}
		var out bytes.Buffer
		if err := EncodeSnapshot(&out, meta, g); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		meta2, g2, err := DecodeSnapshot(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if meta2 != meta {
			t.Fatalf("meta drift: %+v vs %+v", meta2, meta)
		}
		assertBitIdentical(t, g, g2)
	})
}
