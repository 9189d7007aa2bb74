package exp

import (
	"bytes"
	"fmt"
	"os"

	"bedom/internal/graph"
	"bedom/internal/store"
)

// E9PersistenceCodec measures the durability layer of internal/store: the
// snapshot codec's size efficiency (varint-packed CSR vs. raw CSR bytes vs.
// the text edge-list format) and the WAL's record framing, with a full
// encode → decode → bit-identity check and a disk round trip through a real
// store (save, append deltas, recover).  Every cell is deterministic (sizes,
// counts, identity booleans).  The codec's times are bench/ rows:
// store.snapshot_encode_ms.*, store.snapshot_decode_ms and store.open_ms.
func E9PersistenceCodec(cfg Config) *Table {
	t := &Table{
		ID:    "E9",
		Title: "Persistence: snapshot codec compactness and WAL replay fidelity (internal/store)",
		Header: []string{"family", "n", "m", "snap bytes", "bytes/edge", "vs raw CSR", "vs edge list",
			"wal records", "wal bytes", "recovered", "identical"},
	}
	for _, f := range qualityFamilies(cfg) {
		g := instance(f, cfg.N, cfg.Seed)
		meta := store.SnapshotMeta{Name: f.Name, Epoch: 1, Gen: 1}

		var snap bytes.Buffer
		if err := store.EncodeSnapshot(&snap, meta, g); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: encode failed: %v", f.Name, err))
			continue
		}
		_, back, err := store.DecodeSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: decode failed: %v", f.Name, err))
			continue
		}
		identical := bitIdentical(g, back)

		// Size baselines: the raw in-memory CSR footprint and the text
		// edge-list document the library used before this codec existed.
		off, tgt := g.CSR()
		rawBytes := 4 * (len(off) + len(tgt))
		var edgeList bytes.Buffer
		_ = graph.WriteEdgeList(&edgeList, g)

		walRecords, walBytes, recovered := walRoundTrip(f.Name, g)

		bytesPerEdge := 0.0
		if g.M() > 0 {
			bytesPerEdge = float64(snap.Len()) / float64(g.M())
		}
		t.AddRow(f.Name, g.N(), g.M(), snap.Len(), bytesPerEdge,
			ratio(snap.Len(), rawBytes), ratio(snap.Len(), edgeList.Len()),
			walRecords, walBytes, recovered, identical)
	}
	t.Notes = append(t.Notes,
		"snapshot = varint-packed CSR with per-section CRC-32C (DESIGN.md §9); 'vs raw CSR' and 'vs edge list' are size ratios")
	return t
}

// walRoundTrip persists g plus a handful of deltas through a real on-disk
// store, reopens it, and reports the WAL footprint and whether recovery got
// everything back.
func walRoundTrip(name string, g *graph.Graph) (records int, walBytes uint64, recovered bool) {
	dir, err := os.MkdirTemp("", "bedom-e9-")
	if err != nil {
		return 0, 0, false
	}
	defer os.RemoveAll(dir)

	s, _, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return 0, 0, false
	}
	epoch := s.NextEpoch()
	if err := s.SaveSnapshot(store.SnapshotMeta{Name: name, Epoch: epoch, Gen: 1}, g); err != nil {
		s.Close()
		return 0, 0, false
	}
	// A deterministic delta stream: add a sprinkling of chords, remove a few
	// existing edges.
	const deltas = 32
	dyn := graph.NewDynamic(g, 0)
	for i := 0; i < deltas; i++ {
		d := graph.Delta{Add: [][2]int{{i % g.N(), (i*7 + 1) % g.N()}}}
		if d.Add[0][0] == d.Add[0][1] {
			d.Add[0][1] = (d.Add[0][1] + 1) % g.N()
		}
		if _, err := dyn.Apply(d); err != nil {
			continue
		}
		if _, err := s.AppendDelta(name, epoch, uint64(i+2), d); err != nil {
			continue
		}
		records++
	}
	walBytes = s.Stats().WALBytes
	s.Close()

	s2, rec, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return records, walBytes, false
	}
	defer s2.Close()
	if len(rec.Graphs) != 1 || len(rec.Records) != records {
		return records, walBytes, false
	}
	restored := graph.NewDynamic(rec.Graphs[0].Graph, 0)
	for _, r := range rec.Records {
		if _, err := restored.Apply(r.Delta); err != nil {
			return records, walBytes, false
		}
	}
	return records, walBytes, bitIdentical(dyn.Snapshot(), restored.Snapshot())
}

func bitIdentical(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	aOff, aTgt := a.CSR()
	bOff, bTgt := b.CSR()
	for i := range aOff {
		if aOff[i] != bOff[i] {
			return false
		}
	}
	for i := range aTgt {
		if aTgt[i] != bTgt[i] {
			return false
		}
	}
	return true
}
