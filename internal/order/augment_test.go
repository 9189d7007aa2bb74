package order

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// digest is the first 8 bytes of the SHA-256 of everything write put in.
func digest(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func writeInts(h hash.Hash, xs []int) {
	h.Write([]byte{'['})
	for _, x := range xs {
		fmt.Fprintf(h, "%d,", x)
	}
	h.Write([]byte{']'})
}

// resultDigest hashes everything Construct reports: the order, the input's
// degeneracy, the augmented out-degree and every round's statistics.
func resultDigest(res Result) string {
	return digest(func(h hash.Hash) {
		writeInts(h, res.Order.Permutation())
		fmt.Fprintf(h, "|%d,%d", res.Degeneracy, res.MaxOutDegree)
		for _, rd := range res.Rounds {
			fmt.Fprintf(h, "|%d,%d,%d", rd.TransitiveArcs, rd.FraternalEdges, rd.MaxOutDegree)
		}
	})
}

// TestConstructPinnedDigests pins the constructed order and every
// diagnostic of Construct at r = 1, 2, 3 on three fixed instances.  The
// digests were recorded with an augmentation round that emitted every
// transitive arc once per middle vertex and every fraternal pair once per
// common tail and then sorted the copies away, keeping the minimum length
// of a transitive arc and the length via the smallest common tail of a
// fraternal pair.  None of the instances reaches a fixpoint by round 3, so
// the early stop cannot shorten Rounds here.
func TestConstructPinnedDigests(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"apollonian400": gen.Apollonian(400, 1),
		"geometric600":  mustLargest(gen.RandomGeometric(600, gen.GeometricRadiusForAvgDeg(600, 6), 1)),
		"grid20x20":     gen.Grid(20, 20),
	}
	for _, tc := range []struct {
		graph  string
		r      int
		digest string
	}{
		{"apollonian400", 1, "b536d194e428b822"},
		{"apollonian400", 2, "c962ec5c287d36e1"},
		{"apollonian400", 3, "a39f128114577eba"},
		{"geometric600", 1, "db9155083aafc847"},
		{"geometric600", 2, "8b0e9e5122e8d696"},
		{"geometric600", 3, "f8aadf1e09711419"},
		{"grid20x20", 1, "33959ebf2d50c741"},
		{"grid20x20", 2, "f11bc230c736fed3"},
		{"grid20x20", 3, "88459e2eef55d97c"},
	} {
		for _, workers := range determinismWorkerCounts {
			opts := DefaultOptions(tc.r)
			opts.Workers = workers
			res := Construct(graphs[tc.graph], opts)
			if got := resultDigest(res); got != tc.digest {
				t.Errorf("%s r=%d workers=%d: digest %s, want %s (rounds %+v)",
					tc.graph, tc.r, workers, got, tc.digest, res.Rounds)
			}
		}
	}
}

// TestConstructStopsAtFixpoint checks the early stop: on a 10×10 grid no
// round after the 7th adds an arc, so a radius of 100 builds the same order
// as 100 full rounds did (the digest was recorded running all of them), and
// a radius of 10,000 costs no more.
func TestConstructStopsAtFixpoint(t *testing.T) {
	g := gen.Grid(10, 10)
	res := Construct(g, DefaultOptions(100))
	perm := digest(func(h hash.Hash) { writeInts(h, res.Order.Permutation()) })
	if want := "9a0f0d6ffa13aef2"; perm != want {
		t.Fatalf("r=100 order digest %s, want %s", perm, want)
	}
	last := len(res.Rounds) - 1
	if last < 0 || res.Rounds[last].TransitiveArcs != 0 || res.Rounds[last].FraternalEdges != 0 {
		t.Fatalf("Rounds must end at the first round that adds nothing: %+v", res.Rounds)
	}
	for i, rd := range res.Rounds[:last] {
		if rd.TransitiveArcs == 0 && rd.FraternalEdges == 0 {
			t.Fatalf("round %d added nothing but the construction went on: %+v", i+1, res.Rounds)
		}
	}

	start := time.Now()
	huge := Construct(g, DefaultOptions(10_000))
	if el := time.Since(start); el > time.Second {
		t.Fatalf("r=10000 on a 10x10 grid took %v", el)
	}
	if !reflect.DeepEqual(huge.Order.Permutation(), res.Order.Permutation()) ||
		!reflect.DeepEqual(huge.Rounds, res.Rounds) {
		t.Fatalf("r=10000 and r=100 differ past the fixpoint: %+v vs %+v", huge.Rounds, res.Rounds)
	}
}

// augmentReference is one augmentation round written out with maps: it
// enumerates every 2-path of d, keeps the minimum length of each new
// transitive arc and the length via the smallest common tail of each new
// fraternal pair, skips pairs adjacent before the round, orients the pairs
// by a degeneracy order of the graph they form and returns the arc set the
// round must produce, keyed by (tail, head).
func augmentReference(d *Digraph, maxLen int) (map[[2]int]int, AugmentationResult) {
	n := d.N()
	arcs := make(map[[2]int]int)
	for v := 0; v < n; v++ {
		for _, a := range d.Out(v) {
			arcs[[2]int{v, int(a.To)}] = int(a.Length)
		}
	}
	adjacent := func(u, v int) bool {
		_, uv := arcs[[2]int{u, v}]
		_, vu := arcs[[2]int{v, u}]
		return uv || vu
	}
	trans := make(map[[2]int]int)
	type viaTail struct{ tail, length int }
	frat := make(map[[2]int]viaTail)
	for y := 0; y < n; y++ {
		for _, p := range d.Out(y) {
			z, lz := int(p.To), int(p.Length)
			// Transitive: every x→y→z through this middle vertex y.
			for x := 0; x < n; x++ {
				ly, ok := arcs[[2]int{x, y}]
				if !ok || x == z {
					continue
				}
				key := [2]int{x, z}
				if _, old := arcs[key]; old || ly+lz > maxLen {
					continue
				}
				if cur, seen := trans[key]; !seen || ly+lz < cur {
					trans[key] = ly + lz
				}
			}
			// Fraternal: every pair of heads z < b of this common tail y.
			for _, q := range d.Out(y) {
				b, l := int(q.To), lz+int(q.Length)
				if z >= b || l > maxLen || adjacent(z, b) {
					continue
				}
				key := [2]int{z, b}
				if cur, seen := frat[key]; !seen || y < cur.tail {
					frat[key] = viaTail{y, l}
				}
			}
		}
	}
	want := make(map[[2]int]int, len(arcs)+len(trans)+len(frat))
	for k, l := range arcs {
		want[k] = l
	}
	for k, l := range trans {
		want[k] = l
	}
	var edges [][2]int
	for k := range frat {
		edges = append(edges, k)
	}
	fo, _ := FromDegeneracy(graph.MustFromEdges(n, edges))
	for k, via := range frat {
		tail, head := k[0], k[1]
		if fo.Less(tail, head) {
			tail, head = head, tail
		}
		key := [2]int{tail, head}
		if cur, ok := want[key]; !ok || via.length < cur {
			want[key] = via.length
		}
	}
	res := AugmentationResult{TransitiveArcs: len(trans), FraternalEdges: len(frat)}
	outdeg := make([]int, n)
	for k := range want {
		outdeg[k[0]]++
		res.MaxOutDegree = max(res.MaxOutDegree, outdeg[k[0]])
	}
	return want, res
}

// randomDigraph draws arcs between random distinct vertices with lengths in
// [1, 3], so both directions of a pair and arcs longer than the cap occur.
func randomDigraph(rng *rand.Rand, n int) *Digraph {
	d := NewDigraph(n)
	for i := rng.Intn(3 * n); i > 0; i-- {
		d.AddArc(rng.Intn(n), rng.Intn(n), 1+rng.Intn(3))
	}
	return d
}

// randomOrientation orients a random sparse graph by a random order, the
// state Construct starts its rounds from.
func randomOrientation(rng *rand.Rand, n int) *Digraph {
	g := graph.New(n)
	for i := rng.Intn(3 * n); i > 0; i-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			_ = g.AddEdgeLazy(u, v)
		}
	}
	g.Finalize()
	o, err := FromPermutation(rng.Perm(n))
	if err != nil {
		panic(err)
	}
	return OrientByOrder(g, o)
}

// TestAugmentOnceMatchesBruteForce checks three consecutive rounds on 120
// seeded random digraphs, half of them orientations and half arbitrary
// digraphs with mixed lengths, against augmentReference, with length caps 2
// to 7 and worker counts 1 to 4.  Every fifth instance runs on one worker
// whose stamp counter wraps during the first round.
func TestAugmentOnceMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		d := randomOrientation(rng, n)
		if seed%2 == 1 {
			d = randomDigraph(rng, n)
		}
		maxLen := 2 + int(seed%6)
		workers := 1 + int(seed%4)
		var wrapping []roundWorker
		if seed%5 == 0 {
			workers = 1
			wrapping = []roundWorker{{stamp: math.MaxInt32 - 2*int32(n)}}
		}
		for round := 1; round <= 3; round++ {
			want, wantRes := augmentReference(d, maxLen)
			var res AugmentationResult
			if wrapping != nil {
				res = d.round(maxLen, wrapping)
			} else {
				res = d.AugmentOnceWorkers(maxLen, workers)
			}
			if res != wantRes {
				t.Fatalf("seed %d round %d (n=%d cap=%d workers=%d): stats %+v, want %+v",
					seed, round, n, maxLen, workers, res, wantRes)
			}
			for v := 0; v < n; v++ {
				var row []Arc
				for k, l := range want {
					if k[0] == v {
						row = append(row, Arc{To: int32(k[1]), Length: int32(l)})
					}
				}
				slices.SortFunc(row, func(a, b Arc) int { return int(a.To) - int(b.To) })
				if got := d.Out(v); !slices.Equal(got, row) {
					t.Fatalf("seed %d round %d (n=%d cap=%d workers=%d): arcs of %d = %v, want %v",
						seed, round, n, maxLen, workers, v, got, row)
				}
			}
		}
	}
}

// TestConstructAllocs gates the allocations of a single-worker Construct
// on the churn benchmark's sweep graph, the largest component of a
// geometric graph with n = 5,000 (seed 1).  The budgets sit about 15% above
// the measured counts.  The race detector allocates on its own, so the test
// skips under -race; CI runs it in a separate non-race step.
func TestConstructAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := mustLargest(gen.RandomGeometric(5000, gen.GeometricRadiusForAvgDeg(5000, 6), 1))
	for _, tc := range []struct {
		r      int
		budget float64
	}{
		{1, 68},  // measured 59
		{3, 132}, // measured 115
	} {
		opts := DefaultOptions(tc.r)
		opts.Workers = 1
		got := testing.AllocsPerRun(3, func() { Construct(g, opts) })
		t.Logf("Construct r=%d: %.0f allocations per call (budget %.0f)", tc.r, got, tc.budget)
		if got > tc.budget {
			t.Errorf("Construct r=%d allocated %.0f times per call, budget %.0f", tc.r, got, tc.budget)
		}
	}
}

// TestWReachSetsAllocs gates the sweep's order.wreach_allocs row: a
// single-worker WReachSetsWorkers at s = 2 on the order for r = 1, on the
// graph and with the headroom of TestConstructAllocs.
func TestWReachSetsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := mustLargest(gen.RandomGeometric(5000, gen.GeometricRadiusForAvgDeg(5000, 6), 1))
	opts := DefaultOptions(1)
	opts.Workers = 1
	o := Construct(g, opts).Order
	const budget = 14 // measured 12
	got := testing.AllocsPerRun(3, func() { WReachSetsWorkers(g, o, 2, 1) })
	t.Logf("WReachSetsWorkers s=2: %.0f allocations per call (budget %d)", got, budget)
	if got > budget {
		t.Errorf("WReachSetsWorkers s=2 allocated %.0f times per call, budget %d", got, budget)
	}
}

// TestWReachSweepAllocs gates the sweep the engine caches for domset and
// cover: WReachSweep at s = 2 with the homes at rho = 1, single-worker, on
// the graph and order of TestWReachSetsAllocs.  The homes add the result's
// table and one per block; a sweep asked for no homes keeps
// TestWReachSetsAllocs' count.
func TestWReachSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := mustLargest(gen.RandomGeometric(5000, gen.GeometricRadiusForAvgDeg(5000, 6), 1))
	opts := DefaultOptions(1)
	opts.Workers = 1
	o := Construct(g, opts).Order
	const budget = 16 // measured 14
	got := testing.AllocsPerRun(3, func() { WReachSweep(g, o, 2, 1, 1) })
	t.Logf("WReachSweep s=2 rho=1: %.0f allocations per call (budget %d)", got, budget)
	if got > budget {
		t.Errorf("WReachSweep s=2 rho=1 allocated %.0f times per call, budget %d", got, budget)
	}
}

// TestWReachSweepFootprint gates what a cached sweep keeps alive: the sweep
// of TestWReachSweepAllocs, once its scratch is collected, may retain at
// most 4 bytes per set entry (one int32 id) and 16 bytes per vertex (one
// offset and one home), plus the page rounding of those three arrays and
// the Sweep itself.
func TestWReachSweepFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under -race")
	}
	g := mustLargest(gen.RandomGeometric(5000, gen.GeometricRadiusForAvgDeg(5000, 6), 1))
	opts := DefaultOptions(1)
	opts.Workers = 1
	o := Construct(g, opts).Order
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sw := WReachSweep(g, o, 2, 1, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	entries := 0
	for w := range sw.Sets.Len() {
		entries += len(sw.Sets.Of(w))
	}
	const rounding = 4 * 8192
	bound := int64(4*entries + 16*g.N() + rounding)
	t.Logf("WReachSweep s=2 rho=1: %d bytes retained for %d vertices and %d entries (bound %d)", retained, g.N(), entries, bound)
	if retained > bound {
		t.Errorf("WReachSweep s=2 rho=1 retained %d bytes, bound %d", retained, bound)
	}
	runtime.KeepAlive(o) // an order collected mid-measurement would hide 16 bytes per vertex
	runtime.KeepAlive(sw)
}
