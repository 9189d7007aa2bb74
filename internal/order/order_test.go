package order

import (
	"testing"
	"testing/quick"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

func TestFromPermutationAndPositions(t *testing.T) {
	o, err := FromPermutation([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.At(0) != 2 || o.Pos(2) != 0 || o.Pos(1) != 2 {
		t.Fatalf("positions wrong: %v / %v", o.Permutation(), o.Positions())
	}
	if !o.Less(2, 0) || o.Less(1, 0) {
		t.Fatal("Less wrong")
	}
	o2, err := FromPositions(o.Positions())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if o2.Pos(v) != o.Pos(v) {
			t.Fatal("FromPositions does not round-trip")
		}
	}
	if o.N() != 3 {
		t.Fatalf("N=%d", o.N())
	}
}

func TestOrderValidation(t *testing.T) {
	if _, err := FromPermutation([]int{0, 0, 1}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := FromPermutation([]int{0, 3, 1}); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := FromPositions([]int{1, 1, 0}); err == nil {
		t.Fatal("duplicate position accepted")
	}
	if _, err := FromPositions([]int{-1, 1, 0}); err == nil {
		t.Fatal("negative position accepted")
	}
}

func TestIdentity(t *testing.T) {
	o := Identity(5)
	for v := 0; v < 5; v++ {
		if o.Pos(v) != v || o.At(v) != v {
			t.Fatal("identity order wrong")
		}
	}
}

func TestFromDegeneracyBackDegree(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"path", gen.Path(30), 1},
		{"cycle", gen.Cycle(30), 2},
		{"apollonian", gen.Apollonian(80, 1), 3},
		{"ktree4", gen.RandomKTree(60, 4, 2), 4},
	} {
		o, k := FromDegeneracy(tc.g)
		if k != tc.k {
			t.Errorf("%s: degeneracy %d want %d", tc.name, k, tc.k)
		}
		if back := SmallerNeighborsBound(tc.g, o); back > k {
			t.Errorf("%s: back-degree %d exceeds degeneracy %d", tc.name, back, k)
		}
	}
}

func TestWReachAgainstBruteForce(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":        gen.Path(9),
		"cycle":       gen.Cycle(8),
		"grid":        gen.Grid(3, 4),
		"outerplanar": gen.Outerplanar(9, 3),
		"apollonian":  gen.Apollonian(9, 5),
		"tree":        gen.RandomTree(10, 7),
	}
	for name, g := range graphs {
		for _, r := range []int{1, 2, 3} {
			o, _ := FromDegeneracy(g)
			sets := WReachSets(g, o, r)
			for v := 0; v < g.N(); v++ {
				want := WReachBruteForce(g, o, r, v)
				got := sets[v]
				if len(got) != len(want) {
					t.Fatalf("%s r=%d v=%d: got %v want %v", name, r, v, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s r=%d v=%d: got %v want %v", name, r, v, got, want)
					}
				}
			}
		}
	}
}

func TestWReachContainsSelfAndMonotone(t *testing.T) {
	g := gen.Apollonian(60, 11)
	o := ConstructDefault(g, 2)
	s1 := WReachSets(g, o, 1)
	s2 := WReachSets(g, o, 2)
	for v := 0; v < g.N(); v++ {
		found := false
		for _, u := range s1[v] {
			if u == v {
				found = true
			}
			if o.Less(v, u) {
				t.Fatalf("WReach contains a larger vertex: %d in set of %d", u, v)
			}
		}
		if !found {
			t.Fatalf("WReach_1[%d] misses the vertex itself", v)
		}
		if len(s2[v]) < len(s1[v]) {
			t.Fatalf("WReach_2 smaller than WReach_1 at %d", v)
		}
	}
}

func TestWColMeasureKnownValues(t *testing.T) {
	// On a path with the degeneracy order, wcol_r ≤ r+1.
	g := gen.Path(50)
	o, _ := FromDegeneracy(g)
	for r := 1; r <= 4; r++ {
		if got := WColMeasure(g, o, r); got > r+1 {
			t.Fatalf("path wcol_%d = %d > %d", r, got, r+1)
		}
	}
	// On a star with the identity order (center 0 is least), every leaf can
	// weakly reach only itself and the center, so wcol_r = 2 for every r ≥ 1.
	star := gen.Star(40)
	so := Identity(40)
	if got := WColMeasure(star, so, 3); got != 2 {
		t.Fatalf("star wcol_3 = %d want 2", got)
	}
	// The degeneracy order may place a leaf first; even then wcol_3 ≤ 3.
	sd, _ := FromDegeneracy(star)
	if got := WColMeasure(star, sd, 3); got > 3 {
		t.Fatalf("star wcol_3 under degeneracy order = %d want ≤ 3", got)
	}
}

func TestWColOfSetsAndMinWReach(t *testing.T) {
	g := gen.Grid(8, 8)
	o := ConstructDefault(g, 1)
	sets := WReachSets(g, o, 2)
	if max := WColOfSets(sets); max < 1 || max != WColMeasure(g, o, 2) {
		t.Fatalf("wcol of sets %d, measured %d", max, WColMeasure(g, o, 2))
	}
	mins := MinWReach(g, o, 2)
	for v := range mins {
		if mins[v] != sets[v][0] {
			t.Fatalf("MinWReach mismatch at %d", v)
		}
		if o.Less(v, mins[v]) {
			t.Fatalf("min wreach of %d is larger than %d", v, v)
		}
	}
}

func TestDigraphBasics(t *testing.T) {
	d := NewDigraph(4)
	d.AddArc(3, 1, 1)
	d.AddArc(3, 1, 5) // longer duplicate must not overwrite
	d.AddArc(3, 2, 2)
	d.AddArc(1, 0, 1)
	d.AddArc(2, 2, 1) // self arc ignored
	if d.N() != 4 || !d.HasArc(3, 1) || d.HasArc(1, 3) {
		t.Fatal("arc bookkeeping wrong")
	}
	if d.OutDegree(3) != 2 || d.MaxOutDegree() != 2 {
		t.Fatal("degrees wrong")
	}
	out := d.Out(3)
	if len(out) != 2 || out[0].To != 1 || out[0].Length != 1 {
		t.Fatalf("Out(3) = %v", out)
	}
	u := d.Underlying()
	if u.M() != 3 || !u.HasEdge(1, 3) {
		t.Fatalf("underlying graph wrong: %v", u)
	}
	// Shorter arc replaces longer one.
	d.AddArc(3, 2, 1)
	if d.Out(3)[1].Length != 1 {
		t.Fatal("shorter arc did not replace longer")
	}
}

func TestOrientByOrder(t *testing.T) {
	g := gen.Cycle(6)
	o := Identity(6)
	d := OrientByOrder(g, o)
	for v := 0; v < 6; v++ {
		for _, a := range d.Out(v) {
			if !o.Less(int(a.To), v) {
				t.Fatalf("arc %d→%d points to a larger vertex", v, a.To)
			}
		}
	}
	total := 0
	for v := 0; v < 6; v++ {
		total += d.OutDegree(v)
	}
	if total != g.M() {
		t.Fatalf("orientation lost edges: %d arcs vs %d edges", total, g.M())
	}
}

func TestAugmentOnceAddsShortcuts(t *testing.T) {
	// Path 0-1-2: orient 2→1, 1→0 (identity order).  One augmentation adds
	// the transitive arc 2→0 of length 2.
	g := gen.Path(3)
	o := Identity(3)
	d := OrientByOrder(g, o)
	res := d.AugmentOnce(4)
	if !d.HasArc(2, 0) {
		t.Fatal("transitive arc 2→0 missing")
	}
	if res.TransitiveArcs != 1 {
		t.Fatalf("transitive count %d", res.TransitiveArcs)
	}
	// Star with center 0 smallest: every leaf points to 0 and no vertex has
	// two out-arcs, so no fraternal edges may appear.
	star := gen.Star(4)
	sd := OrientByOrder(star, Identity(4))
	if sres := sd.AugmentOnce(4); sres.FraternalEdges != 0 {
		t.Fatalf("star with center least should add no fraternal edges, got %d", sres.FraternalEdges)
	}
	// Star with the center *largest*: the center points to all leaves, so the
	// fraternal rule connects every pair of leaves (C(3,2) = 3 edges).
	rev, err := FromPermutation([]int{1, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	rd := OrientByOrder(star, rev)
	rres := rd.AugmentOnce(4)
	if rres.FraternalEdges != 3 {
		t.Fatalf("expected 3 fraternal edges among star leaves, got %d", rres.FraternalEdges)
	}
	if rres.MaxOutDegree > 3 {
		t.Fatalf("fraternal orientation should keep out-degree small, got %d", rres.MaxOutDegree)
	}
}

func TestAugmentRespectsLengthCap(t *testing.T) {
	g := gen.Path(6)
	o := Identity(6)
	d := OrientByOrder(g, o)
	d.AugmentOnce(1) // cap 1: nothing may be added
	for v := 0; v < 6; v++ {
		for _, a := range d.Out(v) {
			if a.Length > 1 {
				t.Fatalf("arc %d→%d length %d violates cap", v, a.To, a.Length)
			}
		}
	}
}

func TestTFAugmentationKeepsOutDegreeModest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		bound int
	}{
		{"grid", gen.Grid(12, 12), 30},
		{"apollonian", gen.Apollonian(150, 3), 60},
		{"outerplanar", gen.Outerplanar(150, 4), 30},
		{"tree", gen.RandomTree(150, 5), 20},
	} {
		d, rounds := TFAugmentation(tc.g, 2, 5)
		if len(rounds) != 2 {
			t.Fatalf("%s: expected 2 rounds", tc.name)
		}
		if d.MaxOutDegree() > tc.bound {
			t.Errorf("%s: augmented out-degree %d exceeds sanity bound %d",
				tc.name, d.MaxOutDegree(), tc.bound)
		}
	}
}

func TestConstructImprovesOverDegeneracy(t *testing.T) {
	// For r ≥ 2 the augmented order should not be (much) worse than the
	// plain degeneracy order, and usually better, on planar-like graphs.
	for _, g := range []*graph.Graph{gen.Grid(15, 15), gen.Apollonian(200, 9)} {
		r := 2
		plain, _ := FromDegeneracy(g)
		res := Construct(g, DefaultOptions(r))
		plainW := WColMeasure(g, plain, 2*r)
		augW := WColMeasure(g, res.Order, 2*r)
		if augW > 2*plainW {
			t.Errorf("augmented order much worse than degeneracy: %d vs %d", augW, plainW)
		}
		if res.Degeneracy <= 0 || res.MaxOutDegree < res.Degeneracy {
			t.Errorf("diagnostics wrong: %+v", res)
		}
	}
}

func TestConstructDepthZeroIsDegeneracy(t *testing.T) {
	g := gen.Grid(10, 10)
	res := Construct(g, Options{Radius: 1, AugmentationDepth: 0})
	o2, k := FromDegeneracy(g)
	if res.MaxOutDegree != k {
		t.Fatalf("depth-0 max out-degree %d want %d", res.MaxOutDegree, k)
	}
	for v := 0; v < g.N(); v++ {
		if res.Order.Pos(v) != o2.Pos(v) {
			t.Fatal("depth-0 construct should equal the degeneracy order")
		}
	}
}

func TestConstructNormalisesOptions(t *testing.T) {
	g := gen.Path(10)
	res := Construct(g, Options{Radius: 0, AugmentationDepth: -1, MaxArcLength: -5})
	if res.Order == nil || res.Order.N() != 10 {
		t.Fatal("construct with degenerate options failed")
	}
}

// Property test: for random k-trees the measured wcol_2 under the constructed
// order stays within a generous constant bound (the theory guarantees a
// constant for each class; we pin a loose envelope to catch regressions).
func TestWcolEnvelopeQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.RandomKTree(80, 3, seed)
		o := ConstructDefault(g, 1)
		return WColMeasure(g, o, 2) <= 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
