package distalgo

import (
	"testing"

	"bedom/internal/connect"
	"bedom/internal/dist"
	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

func TestHPartitionProperties(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(12, 12)},
		{"apollonian", gen.Apollonian(150, 3)},
		{"tree", gen.RandomTree(150, 7)},
		{"outerplanar", gen.Outerplanar(150, 9)},
	}
	for _, tc := range cases {
		a := tc.g.Degeneracy()
		res, err := RunHPartition(tc.g, dist.CongestBC, a, 1, dist.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Every vertex got a class.
		for v, c := range res.Class {
			if c < 1 {
				t.Fatalf("%s: vertex %d has no class", tc.name, v)
			}
		}
		// The derived order has back-degree at most (2+eps)·a = 3a.
		if back := order.SmallerNeighborsBound(tc.g, res.Order); back > 3*a {
			t.Errorf("%s: back-degree %d exceeds 3a=%d", tc.name, back, 3*a)
		}
		// Rounds are logarithmic-ish: generous envelope.
		if res.Stats.Rounds > 6*intLog2(tc.g.N())+12 {
			t.Errorf("%s: %d rounds for n=%d", tc.name, res.Stats.Rounds, tc.g.N())
		}
		// CONGEST_BC compliance: single-word messages.
		if res.Stats.MaxMessageWords > 1 {
			t.Errorf("%s: H-partition message of %d words", tc.name, res.Stats.MaxMessageWords)
		}
	}
}

func intLog2(n int) int {
	l := 0
	for n > 1 {
		n /= 2
		l++
	}
	return l
}

func TestOrderFromClasses(t *testing.T) {
	classes := []int{1, 3, 2, 3, 1}
	o := OrderFromClasses(classes)
	// Higher class first: vertices 1 and 3 (class 3) precede 2 (class 2),
	// which precedes 0 and 4 (class 1); ties by id.
	wantPerm := []int{1, 3, 2, 0, 4}
	for i, v := range wantPerm {
		if o.At(i) != v {
			t.Fatalf("position %d: got %d want %d", i, o.At(i), v)
		}
	}
}

func TestWReachDistMatchesSequentialSets(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(20)},
		{"grid", gen.Grid(7, 7)},
		{"apollonian", gen.Apollonian(60, 3)},
		{"tree", gen.RandomTree(50, 1)},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			horizon := 2 * r
			o := order.ConstructDefault(tc.g, r)
			res, err := RunWReachDist(tc.g, o, horizon, dist.CongestBC, dist.Options{})
			if err != nil {
				t.Fatalf("%s r=%d: %v", tc.name, r, err)
			}
			sets := order.WReachSets(tc.g, o, horizon)
			for v := 0; v < tc.g.N(); v++ {
				got, want := res.Witnesses[v], sets.Of(v)
				if len(got) != len(want) {
					t.Fatalf("%s r=%d v=%d: %d targets, want %d", tc.name, r, v, len(got), len(want))
				}
				for i := range got {
					if got[i].Target != int(want[i]) {
						t.Fatalf("%s r=%d v=%d: target mismatch at %d: %d vs %d",
							tc.name, r, v, i, got[i].Target, want[i])
					}
				}
			}
			// Witness paths must be valid weak-reachability witnesses.
			paths := make([][]order.PathTo, tc.g.N())
			copy(paths, res.Witnesses)
			if err := order.VerifyWitnesses(tc.g, o, horizon, paths); err != nil {
				t.Fatalf("%s r=%d: %v", tc.name, r, err)
			}
			// Rounds ≈ horizon (plus settling), messages bounded.
			if res.Stats.Rounds < horizon || res.Stats.Rounds > 3*horizon+4 {
				t.Errorf("%s r=%d: rounds=%d for horizon %d", tc.name, r, res.Stats.Rounds, horizon)
			}
		}
	}
}

func TestWReachDistRejectsBadHorizon(t *testing.T) {
	g := gen.Path(4)
	if _, err := RunWReachDist(g, order.Identity(4), 0, dist.CongestBC, dist.Options{}); err == nil {
		t.Fatal("horizon 0 must be rejected")
	}
}

func TestDistributedDomSetMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(8, 8)},
		{"apollonian", gen.Apollonian(80, 5)},
		{"geometric", largestComp(gen.RandomGeometric(120, 0.13, 3))},
		{"ktree", gen.RandomKTree(80, 3, 11)},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			o := order.ConstructDefault(tc.g, r)
			res, err := RunDomSetWithOrder(tc.g, o, r, dist.CongestBC, dist.Options{})
			if err != nil {
				t.Fatalf("%s r=%d: %v", tc.name, r, err)
			}
			want := domset.FromOrder(tc.g, o, r)
			if !sameInts(res.Set, want) {
				t.Fatalf("%s r=%d: distributed %d vs sequential %d dominators",
					tc.name, r, len(res.Set), len(want))
			}
			if !domset.Check(tc.g, res.Set, r) {
				t.Fatalf("%s r=%d: distributed set does not dominate", tc.name, r)
			}
		}
	}
}

func TestDistributedDomSetFullPipeline(t *testing.T) {
	g := gen.Grid(10, 10)
	for _, r := range []int{1, 2} {
		p := &dist.Probe{}
		res, err := RunDomSet(g, r, dist.CongestBC, dist.Options{Probe: p})
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if !domset.Check(g, res.Set, r) {
			t.Fatalf("r=%d: pipeline output does not dominate", r)
		}
		if got := len(p.Profiles()); got != 3 {
			t.Fatalf("r=%d: expected 3 phases, got %d", r, got)
		}
		if res.Stats.Rounds <= 0 || res.Stats.Messages <= 0 {
			t.Fatalf("r=%d: missing statistics: %+v", r, res.Stats)
		}
		// Quality: within a constant factor of the lower bound.
		lb := domset.ScatteredLowerBound(g, r, res.Set)
		if lb > 0 && len(res.Set) > 25*lb {
			t.Errorf("r=%d: |D|=%d vs lower bound %d", r, len(res.Set), lb)
		}
	}
}

func TestDistributedDomSetRejectsBadRadius(t *testing.T) {
	g := gen.Path(5)
	if _, err := RunDomSetWithOrder(g, order.Identity(5), 0, dist.CongestBC, dist.Options{}); err == nil {
		t.Fatal("radius 0 must be rejected")
	}
	if _, err := RunConnectedDomSetWithOrder(g, order.Identity(5), 0, dist.CongestBC, dist.Options{}); err == nil {
		t.Fatal("radius 0 must be rejected for the connected variant")
	}
}

func TestDistributedConnectedDomSet(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(9, 9)},
		{"apollonian", gen.Apollonian(90, 7)},
		{"outerplanar", gen.Outerplanar(80, 2)},
		{"geometric", largestComp(gen.RandomGeometric(140, 0.14, 9))},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			o := order.ConstructDefault(tc.g, 2*r+1)
			res, err := RunConnectedDomSetWithOrder(tc.g, o, r, dist.CongestBC, dist.Options{})
			if err != nil {
				t.Fatalf("%s r=%d: %v", tc.name, r, err)
			}
			if !connect.CheckConnected(tc.g, res.Set, r) {
				t.Fatalf("%s r=%d: output is not a connected distance-r dominating set", tc.name, r)
			}
			if len(res.DomSet) == 0 || len(res.Set) < len(res.DomSet) {
				t.Fatalf("%s r=%d: inconsistent sizes |D|=%d |D'|=%d",
					tc.name, r, len(res.DomSet), len(res.Set))
			}
			// Theorem 10 blow-up bound: |D'| ≤ c'·(2r+1)·|D| with c' the
			// measured wcol_{2r+1}.
			c := order.WColMeasure(tc.g, o, 2*r+1)
			if len(res.Set) > c*(2*r+1)*len(res.DomSet)+len(res.DomSet) {
				t.Errorf("%s r=%d: blow-up %d/%d exceeds theory bound (c'=%d)",
					tc.name, r, len(res.Set), len(res.DomSet), c)
			}
			// The underlying D must match the plain distributed dominating set.
			plain, err := RunDomSetWithOrder(tc.g, o, r, dist.CongestBC, dist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(plain.Set, res.DomSet) {
				t.Errorf("%s r=%d: connected pipeline disagrees with Theorem 9 on D", tc.name, r)
			}
		}
	}
}

func TestDistributedConnectedFullPipeline(t *testing.T) {
	g := gen.Apollonian(70, 13)
	p := &dist.Probe{}
	res, err := RunConnectedDomSet(g, 1, dist.CongestBC, dist.Options{Probe: p})
	if err != nil {
		t.Fatal(err)
	}
	if !connect.CheckConnected(g, res.Set, 1) {
		t.Fatal("full pipeline output invalid")
	}
	if got := len(p.Profiles()); got != 4 {
		t.Fatalf("expected 4 phases, got %d", got)
	}
}

func TestLocalConnectorMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(8, 8)},
		{"apollonian", gen.Apollonian(70, 3)},
		{"outerplanar", gen.Outerplanar(60, 5)},
		{"tree", gen.RandomTree(60, 17)},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			o := order.ConstructDefault(tc.g, r)
			D := domset.AlgorithmOne(tc.g, o, r)
			res, err := RunLocalConnector(tc.g, D, r, dist.Options{})
			if err != nil {
				t.Fatalf("%s r=%d: %v", tc.name, r, err)
			}
			if !connect.CheckConnected(tc.g, res.Set, r) {
				t.Fatalf("%s r=%d: LOCAL connector output invalid", tc.name, r)
			}
			want := connect.LocalConnector(tc.g, D, r, nil)
			if !sameInts(res.Set, want) {
				t.Errorf("%s r=%d: distributed (%d vertices) and sequential (%d) connectors disagree",
					tc.name, r, len(res.Set), len(want))
			}
			// Round bound of Lemma 16: 3r+1 rounds (one extra settling round
			// of quiescence detection is tolerated).
			if res.Stats.Rounds > 3*r+2 {
				t.Errorf("%s r=%d: %d rounds exceeds 3r+1", tc.name, r, res.Stats.Rounds)
			}
		}
	}
}

func TestLocalConnectorValidation(t *testing.T) {
	g := gen.Path(6)
	if _, err := RunLocalConnector(g, []int{2}, 0, dist.Options{}); err == nil {
		t.Fatal("radius 0 must be rejected")
	}
	if _, err := RunLocalConnector(g, []int{17}, 1, dist.Options{}); err == nil {
		t.Fatal("out-of-range dominator must be rejected")
	}
	if _, err := RunLocalConnector(g, []int{0}, 1, dist.Options{}); err == nil {
		t.Fatal("a set that does not dominate must be rejected")
	}
}

func TestLenzenDistributedMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(9, 9)},
		{"grid-holes", gen.GridWithHoles(10, 10, 0.1, 3)},
		{"outerplanar", gen.Outerplanar(70, 5)},
		{"apollonian", gen.Apollonian(60, 9)},
		{"tree", gen.RandomTree(60, 21)},
	}
	for _, tc := range cases {
		res, err := RunLenzen(tc.g, dist.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := LenzenSequential(tc.g)
		if !sameInts(res.Set, want) {
			t.Fatalf("%s: distributed (%d) and sequential (%d) Lenzen sets differ",
				tc.name, len(res.Set), len(want))
		}
		if !domset.Check(tc.g, res.Set, 1) {
			t.Fatalf("%s: Lenzen set does not dominate", tc.name)
		}
		if res.Stats.Rounds > 8 {
			t.Fatalf("%s: Lenzen used %d rounds, expected a constant ≤ 8", tc.name, res.Stats.Rounds)
		}
	}
}

func TestLenzenConstantRoundsIndependentOfN(t *testing.T) {
	small, err := RunLenzen(gen.Grid(6, 6), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunLenzen(gen.Grid(20, 20), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.Rounds != big.Stats.Rounds {
		t.Fatalf("rounds depend on n: %d vs %d", small.Stats.Rounds, big.Stats.Rounds)
	}
}

func TestLenzenQualityOnPlanar(t *testing.T) {
	g := gen.Grid(12, 12)
	res, err := RunLenzen(g, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := domset.Greedy(g, 1) // greedy is a good proxy for OPT on grids
	if len(res.Set) > 20*len(opt) {
		t.Errorf("Lenzen set size %d vs greedy %d: ratio unexpectedly large", len(res.Set), len(opt))
	}
	if res.SizeA > len(res.Set) {
		t.Fatal("phase-1 set larger than the final set")
	}
}

// TestTheorem17PlanarPipeline combines Lenzen et al. with the LOCAL
// connector: on planar graphs the connected dominating set is at most ~6x
// the Lenzen dominating set (r=1, planar density < 3) and the whole pipeline
// is constant-round.
func TestTheorem17PlanarPipeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(12, 12)},
		{"apollonian", gen.Apollonian(140, 5)},
		{"outerplanar", gen.Outerplanar(120, 7)},
	} {
		mds, err := RunLenzen(tc.g, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cds, err := RunLocalConnector(tc.g, mds.Set, 1, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !connect.CheckConnected(tc.g, cds.Set, 1) {
			t.Fatalf("%s: pipeline output invalid", tc.name)
		}
		if float64(len(cds.Set)) > 6.0*float64(len(mds.Set))+1 {
			t.Errorf("%s: connection blow-up %d/%d exceeds the factor 6 of Theorem 17",
				tc.name, len(cds.Set), len(mds.Set))
		}
		totalRounds := mds.Stats.Rounds + cds.Stats.Rounds
		if totalRounds > 12 {
			t.Errorf("%s: pipeline used %d rounds, expected a small constant", tc.name, totalRounds)
		}
	}
}

// TestRoundsScaleLogarithmically checks the round-complexity shape of the
// full CONGEST_BC pipeline: for fixed r, rounds grow like log n (dominated by
// the H-partition), far below linear.
func TestRoundsScaleLogarithmically(t *testing.T) {
	sizes := []int{8, 16, 32}
	var rounds []int
	for _, side := range sizes {
		g := gen.Grid(side, side)
		res, err := RunDomSet(g, 1, dist.CongestBC, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !domset.Check(g, res.Set, 1) {
			t.Fatal("invalid dominating set")
		}
		rounds = append(rounds, res.Stats.Rounds)
	}
	// Quadrupling n must far less than quadruple the rounds.
	if rounds[2] > 3*rounds[0] {
		t.Errorf("rounds grew too fast: %v for grid sides %v", rounds, sizes)
	}
}

// TestCongestBCMessageSizesConstant verifies the congestion claim of
// Theorem 9: message sizes (in words) do not grow with n for a fixed class
// and radius.
func TestCongestBCMessageSizesConstant(t *testing.T) {
	r := 1
	var maxWords []int
	for _, side := range []int{8, 20} {
		g := gen.Grid(side, side)
		o := order.ConstructDefault(g, r)
		res, err := RunDomSetWithOrder(g, o, r, dist.CongestBC, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxWords = append(maxWords, res.Stats.MaxMessageWords)
	}
	if maxWords[1] > 2*maxWords[0]+4 {
		t.Errorf("max message words grew with n: %v", maxWords)
	}
}

func largestComp(g *graph.Graph) *graph.Graph {
	lc, _ := gen.LargestComponent(g)
	return lc
}

// phaseStats returns the Stats of every run p recorded, in order: one per
// pipeline phase.
func phaseStats(p *dist.Probe) []dist.Stats {
	var out []dist.Stats
	for _, rp := range p.Profiles() {
		out = append(out, rp.Stats)
	}
	return out
}

func sameInts(a, b []int) bool {
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
