package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// snapEdges returns the edge set of the current topology via Snapshot.
func snapEdges(d *Dynamic) [][2]int { return d.Snapshot().Edges() }

func edgesEqual(a, b [][2]int) bool {
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

func TestDynamicBasicMutations(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	d := NewDynamic(g, 0)
	if d.N() != 4 || d.M() != 3 || d.Snapshot() != g {
		t.Fatalf("fresh Dynamic: n=%d m=%d", d.N(), d.M())
	}

	res, err := d.Apply(Delta{Add: [][2]int{{0, 2}}, Remove: [][2]int{{2, 3}}, AddVertices: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesAdded != 1 || res.EdgesRemoved != 1 || res.VerticesAdded != 2 {
		t.Fatalf("result %+v", res)
	}
	if d.N() != 6 || d.M() != 3 {
		t.Fatalf("after delta: n=%d m=%d", d.N(), d.M())
	}
	if !d.HasEdge(0, 2) || d.HasEdge(2, 3) || !d.HasEdge(0, 1) {
		t.Fatal("HasEdge disagrees with the delta")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	want := MustFromEdges(6, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	if !edgesEqual(snapEdges(d), want.Edges()) {
		t.Fatalf("snapshot edges %v, want %v", snapEdges(d), want.Edges())
	}
	// New vertices can carry edges in a later delta.
	if _, err := d.Apply(Delta{Add: [][2]int{{4, 5}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if !d.HasEdge(4, 5) || d.Degree(4) != 2 {
		t.Fatalf("edges on added vertices: deg(4)=%d", d.Degree(4))
	}
}

// TestDynamicSnapshotMatchesFromEdges asserts the central determinism
// contract: a mutated-then-snapshotted graph is bit-identical (same CSR
// arrays) to FromEdges of the final topology.
func TestDynamicSnapshotMatchesFromEdges(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	d := NewDynamic(g, 0)
	if _, err := d.Apply(Delta{AddVertices: 1, Add: [][2]int{{2, 3}, {4, 5}, {0, 5}}, Remove: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	want := MustFromEdges(6, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	if snap.N() != want.N() || snap.M() != want.M() {
		t.Fatalf("snapshot %v, want %v", snap, want)
	}
	for v := 0; v < snap.N(); v++ {
		a, b := snap.Neighbors(v), want.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("row %d differs: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d differs: %v vs %v", v, a, b)
			}
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicDuplicateAndMissingOps(t *testing.T) {
	d := NewDynamic(MustFromEdges(3, [][2]int{{0, 1}}), 0)

	// Duplicate adds: an existing base edge, and the same new edge twice
	// (in both orientations) within one delta.
	res, err := d.Apply(Delta{Add: [][2]int{{0, 1}, {1, 2}, {2, 1}, {1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesAdded != 1 || res.DuplicateAdds != 3 {
		t.Fatalf("duplicate adds: %+v", res)
	}
	if d.M() != 2 {
		t.Fatalf("m=%d after duplicate adds", d.M())
	}

	// Removing a nonexistent edge is a counted no-op, repeated removals of
	// the same edge count once as removed.
	res, err = d.Apply(Delta{Remove: [][2]int{{0, 2}, {0, 1}, {1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesRemoved != 1 || res.MissingRemoves != 2 {
		t.Fatalf("missing removes: %+v", res)
	}
	if d.M() != 1 || d.HasEdge(0, 1) {
		t.Fatal("remove did not stick")
	}

	// Remove-then-add of the same edge in one delta: the edge survives
	// (removals apply first).
	res, err = d.Apply(Delta{Remove: [][2]int{{1, 2}}, Add: [][2]int{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgesRemoved != 1 || res.EdgesAdded != 1 || !d.HasEdge(1, 2) {
		t.Fatalf("remove+add: %+v", res)
	}

	// Un-delete: removing a base edge and adding it back across two deltas
	// cancels out of the overlay entirely.
	d2 := NewDynamic(MustFromEdges(3, [][2]int{{0, 1}, {1, 2}}), 0)
	if _, err := d2.Apply(Delta{Remove: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Apply(Delta{Add: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.PendingDelta != 0 || d2.M() != 2 {
		t.Fatalf("un-delete left overlay %+v", st)
	}
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicValidation(t *testing.T) {
	d := NewDynamic(MustFromEdges(3, [][2]int{{0, 1}}), 0)
	cases := []Delta{
		{Add: [][2]int{{0, 3}}},                 // out of range
		{Add: [][2]int{{-1, 0}}},                // negative
		{Add: [][2]int{{1, 1}}},                 // self-loop
		{Remove: [][2]int{{0, 99}}},             // out of range remove
		{AddVertices: -1},                       // negative vertex count
		{AddVertices: math.MaxInt},              // n + AddVertices overflows
		{AddVertices: math.MaxInt32},            // past the int32 CSR limit
		{AddVertices: 1, Add: [][2]int{{0, 4}}}, // beyond even the grown range
	}
	for i, delta := range cases {
		if _, err := d.Apply(delta); err == nil {
			t.Fatalf("case %d: delta %+v must be rejected", i, delta)
		}
	}
	// Validation is atomic: the rejected deltas changed nothing.
	if d.N() != 3 || d.M() != 1 || d.Stats().PendingDelta != 0 {
		t.Fatalf("rejected deltas mutated the graph: %+v", d.Stats())
	}
	// A delta may reference vertices it adds itself.
	if _, err := d.Apply(Delta{AddVertices: 1, Add: [][2]int{{0, 3}}}); err != nil {
		t.Fatal(err)
	}

	// Edge headroom: a delta whose additions could push the adjacency
	// entries past the int32 CSR limit is rejected up front instead of
	// panicking at materialization.
	full := NewDynamic(MustFromEdges(10, nil), 0)
	full.m = math.MaxInt32/2 - 1
	if _, err := full.Apply(Delta{Add: [][2]int{{0, 1}, {0, 2}}}); err == nil {
		t.Fatal("edge growth past the int32 CSR limit must be rejected")
	}
	if full.Stats().PendingDelta != 0 {
		t.Fatal("rejected edge-overflow delta mutated the overlay")
	}
}

// TestDynamicCompactionThreshold drives the overlay exactly to the
// configured threshold and asserts the compaction boundary: one half-edge
// below does not compact, reaching it does, and the compacted base serves
// identical topology.
func TestDynamicCompactionThreshold(t *testing.T) {
	// Threshold 8 = 4 overlay edges (2 half-edges each).
	d := NewDynamic(MustFromEdges(64, nil), 8)
	for i := 0; i < 3; i++ {
		res, err := d.Apply(Delta{Add: [][2]int{{i, i + 1}}})
		if err != nil || res.Compacted {
			t.Fatalf("edge %d: %+v %v (must not compact below threshold)", i, res, err)
		}
	}
	if st := d.Stats(); st.PendingDelta != 6 || st.Compactions != 0 {
		t.Fatalf("below threshold: %+v", st)
	}
	before := d.Snapshot()
	// The 4th overlay edge reaches the threshold exactly.
	res, err := d.Apply(Delta{Add: [][2]int{{3, 4}}})
	if err != nil || !res.Compacted {
		t.Fatalf("threshold boundary: %+v %v", res, err)
	}
	st := d.Stats()
	if st.PendingDelta != 0 || st.Compactions != 1 {
		t.Fatalf("after compaction: %+v", st)
	}
	if d.Base().M() != 4 || d.Base() != d.Snapshot() {
		t.Fatal("compaction must fold the overlay into the base")
	}
	if before.M() != 3 {
		t.Fatal("pre-compaction snapshot must be unaffected")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicSnapshotCaching(t *testing.T) {
	d := NewDynamic(MustFromEdges(4, [][2]int{{0, 1}}), 0)
	s1 := d.Snapshot()
	if s2 := d.Snapshot(); s2 != s1 {
		t.Fatal("snapshots between mutations must be shared")
	}
	if _, err := d.Apply(Delta{Add: [][2]int{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	s3 := d.Snapshot()
	if s3 == s1 {
		t.Fatal("mutation must invalidate the cached snapshot")
	}
	if s4 := d.Snapshot(); s4 != s3 {
		t.Fatal("fresh snapshot must be cached again")
	}
	// An ineffective delta (all no-ops) keeps the cached snapshot.
	if _, err := d.Apply(Delta{Add: [][2]int{{0, 1}}, Remove: [][2]int{{2, 3}}}); err != nil {
		t.Fatal(err)
	}
	if s5 := d.Snapshot(); s5 != s3 {
		t.Fatal("no-op delta must not invalidate the snapshot")
	}
}

// TestDynamicFuzzVsReference drives a Dynamic with random deltas against a
// map-based reference model and compares the full edge set after every
// batch.  Small thresholds force frequent compactions.
func TestDynamicFuzzVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, threshold := range []int{2, 16, 1 << 20} {
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			n := 20
			ref := make(map[[2]int]bool)
			d := NewDynamic(MustFromEdges(n, nil), threshold)
			for batch := 0; batch < 60; batch++ {
				var delta Delta
				if rng.Intn(8) == 0 {
					delta.AddVertices = rng.Intn(3)
				}
				newN := n + delta.AddVertices
				ops := rng.Intn(6) + 1
				for i := 0; i < ops; i++ {
					u, v := rng.Intn(newN), rng.Intn(newN)
					if u == v {
						continue
					}
					if u > v {
						u, v = v, u
					}
					if rng.Intn(3) == 0 {
						delta.Remove = append(delta.Remove, [2]int{u, v})
					} else {
						delta.Add = append(delta.Add, [2]int{u, v})
					}
				}
				if _, err := d.Apply(delta); err != nil {
					t.Fatal(err)
				}
				n = newN
				for _, e := range delta.Remove {
					delete(ref, e)
				}
				for _, e := range delta.Add {
					ref[e] = true
				}
				if err := d.Validate(); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				snap := d.Snapshot()
				if err := snap.Validate(); err != nil {
					t.Fatalf("batch %d snapshot: %v", batch, err)
				}
				if snap.M() != len(ref) || d.M() != len(ref) {
					t.Fatalf("batch %d: m=%d/%d, reference %d", batch, snap.M(), d.M(), len(ref))
				}
				for _, e := range snap.Edges() {
					if !ref[e] {
						t.Fatalf("batch %d: stray edge %v", batch, e)
					}
				}
			}
		})
	}
}

// TestDynamicConcurrentReads races readers (HasEdge, Degree, Snapshot,
// Stats) against a mutator; run under -race this asserts the locking
// discipline, and every observed snapshot must be internally consistent.
func TestDynamicConcurrentReads(t *testing.T) {
	d := NewDynamic(MustFromEdges(100, nil), 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					d.HasEdge(rng.Intn(100), rng.Intn(100))
				case 1:
					d.Degree(rng.Intn(100))
				case 2:
					if err := d.Snapshot().Validate(); err != nil {
						t.Error(err)
						return
					}
				case 3:
					d.Stats()
				}
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(100), rng.Intn(100)
		if u == v {
			continue
		}
		delta := Delta{Add: [][2]int{{u, v}}}
		if rng.Intn(3) == 0 {
			delta = Delta{Remove: [][2]int{{u, v}}}
		}
		if _, err := d.Apply(delta); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNewDynamicUnfinalized: a Dynamic wraps only a finalized graph.  An
// unfinalized one is refused with a panic naming Finalize, and is left as
// it was.
func TestNewDynamicUnfinalized(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if msg := panicMessage(func() { NewDynamic(g, 0) }); !strings.Contains(msg, "Finalize") {
		t.Fatalf("NewDynamic of an unfinalized graph: panic %q, want one naming Finalize", msg)
	}
	if g.Finalized() {
		t.Fatal("NewDynamic finalized the caller's graph")
	}
}

// BenchmarkDynamicApplyVsRebuild compares the cost of absorbing a small
// delta into a large graph via the overlay (Apply + Snapshot) against
// rebuilding the CSR from the full edge list — the workflow the mutation
// API replaces.  Run with -bench to reproduce the DESIGN.md §8 numbers.
func BenchmarkDynamicApplyVsRebuild(b *testing.B) {
	const side = 500 // 250k vertices, ~499k edges
	base := grid(side, side)
	edges := base.Edges()
	delta := Delta{Add: [][2]int{{0, 2}, {7, 9}}, Remove: [][2]int{{0, 1}}}

	b.Run("apply-only", func(b *testing.B) {
		d := NewDynamic(base, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				if _, err := d.Apply(delta); err != nil {
					b.Fatal(err)
				}
			} else {
				// Undo so the overlay stays bounded across iterations.
				if _, err := d.Apply(Delta{Add: delta.Remove, Remove: delta.Add}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("apply-and-snapshot", func(b *testing.B) {
		d := NewDynamic(base, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				if _, err := d.Apply(delta); err != nil {
					b.Fatal(err)
				}
			} else {
				if _, err := d.Apply(Delta{Add: delta.Remove, Remove: delta.Add}); err != nil {
					b.Fatal(err)
				}
			}
			d.Snapshot()
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := New(base.N())
			for _, e := range edges {
				if err := g.AddEdgeLazy(e[0], e[1]); err != nil {
					b.Fatal(err)
				}
			}
			g.Finalize()
		}
	})
}

// grid builds a rows×cols grid without importing internal/gen (which would
// create an import cycle).
func grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				_ = g.AddEdgeLazy(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				_ = g.AddEdgeLazy(id(r, c), id(r+1, c))
			}
		}
	}
	g.Finalize()
	return g
}
