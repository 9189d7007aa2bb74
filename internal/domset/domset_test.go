package domset

import (
	"slices"
	"testing"
	"testing/quick"

	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

func TestCheckBasics(t *testing.T) {
	g := gen.Path(7)
	if !Check(g, []int{3}, 3) {
		t.Fatal("center of a 7-path should 3-dominate it")
	}
	if Check(g, []int{3}, 2) {
		t.Fatal("center of a 7-path cannot 2-dominate it")
	}
	if Check(g, nil, 1) {
		t.Fatal("empty set cannot dominate a non-empty graph")
	}
	if !Check(graph.New(0), nil, 1) {
		t.Fatal("empty set dominates the empty graph")
	}
	disc := graph.MustFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if Check(disc, []int{0}, 5) {
		t.Fatal("one component cannot dominate the other")
	}
	if !Check(disc, []int{0, 2}, 1) {
		t.Fatal("one vertex per component dominates")
	}
}

// TestCheckRejectsBadInput: an id outside [0, n) and a negative radius are
// answered false, not with a panic or a walk without a depth bound.
func TestCheckRejectsBadInput(t *testing.T) {
	g := gen.Grid(4, 4)
	for _, D := range [][]int{{100}, {-1}, {0, 16}} {
		if Check(g, D, 1) {
			t.Errorf("D = %v accepted on n = 16", D)
		}
	}
	if Check(graph.MustFromEdges(0, nil), []int{0}, 1) {
		t.Error("D = [0] accepted on the empty graph")
	}
	if Check(gen.Grid(1, 4), []int{0}, -1) {
		t.Error("r = -1 accepted")
	}
}

// algorithmOneCases are the graphs on which the sets built from a sweep's
// homes are checked against Algorithm 1.
func algorithmOneCases() []*graph.Graph {
	return []*graph.Graph{
		gen.Path(25),
		gen.Cycle(30),
		gen.Grid(7, 9),
		gen.Apollonian(90, 2),
		gen.Outerplanar(70, 3),
		gen.RandomKTree(80, 3, 4),
		gen.RandomTree(60, 5),
		gen.RandomGeometric(120, 0.12, 6),
	}
}

func TestAlgorithmOneMatchesFromOrder(t *testing.T) {
	for gi, g := range algorithmOneCases() {
		for _, r := range []int{1, 2, 3} {
			o := order.ConstructDefault(g, r)
			a := AlgorithmOne(g, o, r)
			b := FromOrder(g, o, r)
			if len(a) != len(b) {
				t.Fatalf("case %d r=%d: AlgorithmOne %d vs FromOrder %d", gi, r, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("case %d r=%d: sets differ at %d", gi, r, i)
				}
			}
			if !Check(g, a, r) {
				t.Fatalf("case %d r=%d: result not a dominating set", gi, r)
			}
		}
	}
}

// TestSweepHomesMatchAlgorithmOne: whatever radius s ≥ ρ a sweep searches
// and however many workers share it, its homes at radius ρ are
// min WReach_ρ[G, L, w], their distinct values are Algorithm 1's set, and a
// witness sweep records the same homes and depth.  The 3,000-vertex
// Apollonian graph is large enough for the sweep to split into blocks.
func TestSweepHomesMatchAlgorithmOne(t *testing.T) {
	cases := append(algorithmOneCases(), gen.Apollonian(3000, 7))
	for gi, g := range cases {
		for _, rho := range []int{1, 2, 3} {
			o := order.ConstructDefault(g, rho)
			want := AlgorithmOne(g, o, rho)
			setsRho := order.WReachSets(g, o, rho)
			for _, s := range []int{rho, 2 * rho, 2*rho + 1} {
				for _, workers := range []int{1, 2, 8} {
					sw := order.WReachSweep(g, o, s, rho, workers)
					for w, h := range sw.Homes {
						if min := int(setsRho.Of(w)[0]); h != min {
							t.Fatalf("case %d rho=%d s=%d workers=%d: home of %d is %d, want %d", gi, rho, s, workers, w, h, min)
						}
					}
					if got := FromHomes(sw.Homes); !slices.Equal(got, want) {
						t.Fatalf("case %d rho=%d s=%d workers=%d: distinct homes (%d) differ from AlgorithmOne (%d)", gi, rho, s, workers, len(got), len(want))
					}
					wits := order.WReachWitnesses(g, o, s, rho, workers)
					if !slices.Equal(wits.Homes, sw.Homes) || wits.Depth != sw.Depth {
						t.Fatalf("case %d rho=%d s=%d workers=%d: witness sweep homes or depth differ from the plain sweep's", gi, rho, s, workers)
					}
				}
			}
		}
	}
}

func TestAlgorithmOneDominatesWithAnyOrder(t *testing.T) {
	// Correctness (being a dominating set) must hold for any order, even a
	// deliberately bad one; only the approximation factor depends on quality.
	g := gen.Grid(9, 9)
	bad := order.Identity(g.N())
	for _, r := range []int{1, 2} {
		D := AlgorithmOne(g, bad, r)
		if !Check(g, D, r) {
			t.Fatalf("r=%d: not dominating under identity order", r)
		}
	}
}

func TestApproximateQualityOnSmallGraphs(t *testing.T) {
	cases := []*graph.Graph{
		gen.Path(20),
		gen.Cycle(21),
		gen.Grid(5, 6),
		gen.Apollonian(26, 3),
		gen.Outerplanar(24, 4),
		gen.RandomTree(25, 5),
	}
	for gi, g := range cases {
		for _, r := range []int{1, 2} {
			D := AlgorithmOne(g, order.ConstructDefault(g, r), r)
			if !Check(g, D, r) {
				t.Fatalf("case %d r=%d: invalid dominating set", gi, r)
			}
			opt, ok := Exact(g, r, 0)
			if !ok {
				t.Fatalf("case %d r=%d: exact solver did not finish", gi, r)
			}
			if len(D) < opt {
				t.Fatalf("case %d r=%d: |D|=%d smaller than optimum %d (impossible)",
					gi, r, len(D), opt)
			}
			if len(D) > 8*opt {
				t.Errorf("case %d r=%d: ratio %d/%d unexpectedly large", gi, r, len(D), opt)
			}
			if lb := ScatteredLowerBound(g, r, D); lb > opt {
				t.Errorf("case %d r=%d: lower bound %d exceeds optimum %d", gi, r, lb, opt)
			}
		}
	}
}

func TestGreedyProducesValidAndSmallSets(t *testing.T) {
	for _, r := range []int{1, 2} {
		g := gen.Grid(10, 10)
		D := Greedy(g, r)
		if !Check(g, D, r) {
			t.Fatalf("greedy r=%d not dominating", r)
		}
		// Greedy on a 10x10 grid with r=1 should use well under 40 vertices.
		if r == 1 && len(D) > 40 {
			t.Fatalf("greedy r=1 used %d vertices", len(D))
		}
	}
	if got := Greedy(graph.New(0), 1); got != nil {
		t.Fatal("greedy on empty graph should be nil")
	}
	single := graph.New(1)
	single.Finalize()
	if got := Greedy(single, 1); len(got) != 1 {
		t.Fatalf("greedy on a single vertex: %v", got)
	}
}

func TestGreedyMatchesExactOnTinyGraphs(t *testing.T) {
	// Greedy is optimal on paths/cycles for r=1 in size up to a small factor;
	// here we only check validity and that greedy is never smaller than OPT.
	for seed := int64(0); seed < 4; seed++ {
		g := gen.RandomTree(14, seed)
		D := Greedy(g, 1)
		opt, ok := Exact(g, 1, 0)
		if !ok {
			t.Fatal("exact did not finish on a 14-vertex tree")
		}
		if len(D) < opt {
			t.Fatalf("greedy %d < optimum %d", len(D), opt)
		}
	}
}

func TestOrderGreedy(t *testing.T) {
	g := gen.Apollonian(60, 9)
	o := order.ConstructDefault(g, 2)
	D := OrderGreedy(g, o.Positions(), 2)
	if !Check(g, D, 2) {
		t.Fatal("order-greedy not dominating")
	}
	// Processing order matters but the result must dominate for any order.
	D2 := OrderGreedy(g, order.Identity(g.N()).Positions(), 2)
	if !Check(g, D2, 2) {
		t.Fatal("order-greedy with identity order not dominating")
	}
}

func TestExactKnownOptima(t *testing.T) {
	// The optimum distance-1 dominating set of a path on n vertices has size
	// ceil(n/3); distance-r has size ceil(n/(2r+1)).
	for _, n := range []int{1, 2, 3, 7, 10, 13} {
		for _, r := range []int{1, 2} {
			g := gen.Path(n)
			want := (n + 2*r) / (2*r + 1)
			got, ok := Exact(g, r, 0)
			if !ok {
				t.Fatalf("n=%d r=%d: not finished", n, r)
			}
			if got != want {
				t.Fatalf("path n=%d r=%d: got %d want %d", n, r, got, want)
			}
		}
	}
	// Star: a single vertex (the center) dominates.
	if got, _ := Exact(gen.Star(20), 1, 0); got != 1 {
		t.Fatalf("star optimum %d", got)
	}
	if got, ok := Exact(graph.New(0), 1, 0); got != 0 || !ok {
		t.Fatal("empty graph optimum should be 0")
	}
}

func TestExactSetIsOptimalAndValid(t *testing.T) {
	g := gen.Grid(4, 5)
	opt, ok := Exact(g, 1, 0)
	if !ok {
		t.Fatal("exact did not finish")
	}
	set := ExactSet(g, 1, 0)
	if set == nil {
		t.Fatal("ExactSet returned nil")
	}
	if len(set) != opt {
		t.Fatalf("ExactSet size %d want %d", len(set), opt)
	}
	if !Check(g, set, 1) {
		t.Fatal("ExactSet does not dominate")
	}
	if got := ExactSet(graph.New(0), 1, 0); got == nil || len(got) != 0 {
		t.Fatalf("empty graph exact set: %v", got)
	}
}

func TestExactBudgetExhaustion(t *testing.T) {
	g := gen.Grid(6, 6)
	if _, ok := Exact(g, 1, 3); ok {
		t.Fatal("a 3-node budget cannot prove optimality on a 6x6 grid")
	}
	if set := ExactSet(g, 1, 3); set != nil {
		t.Fatal("ExactSet should give up under a tiny budget")
	}
}

func TestScatteredLowerBound(t *testing.T) {
	g := gen.Path(21)
	lb := ScatteredLowerBound(g, 1, nil)
	opt, _ := Exact(g, 1, 0)
	if lb > opt {
		t.Fatalf("lower bound %d exceeds optimum %d", lb, opt)
	}
	if lb < 3 {
		t.Fatalf("scattered bound on a 21-path should be ≥ 3, got %d", lb)
	}
	if ScatteredLowerBound(graph.New(0), 1, nil) != 0 {
		t.Fatal("empty graph lower bound should be 0")
	}
	// Seeding with an approximate dominating set is allowed.
	D := Greedy(g, 1)
	if got := ScatteredLowerBound(g, 1, D); got > opt {
		t.Fatalf("seeded bound %d exceeds optimum %d", got, opt)
	}
}

func TestBestLowerBound(t *testing.T) {
	g := gen.Grid(5, 5)
	D := Greedy(g, 1)
	lb, exact := BestLowerBound(g, 1, D, 30, 0)
	opt, _ := Exact(g, 1, 0)
	if !exact || lb != opt {
		t.Fatalf("BestLowerBound with exact limit: lb=%d exact=%v want opt=%d", lb, exact, opt)
	}
	lb2, exact2 := BestLowerBound(g, 1, D, 0, 0)
	if exact2 {
		t.Fatal("exact flag without exact solving")
	}
	if lb2 > opt || lb2 < 1 {
		t.Fatalf("heuristic bound %d out of range (opt=%d)", lb2, opt)
	}
}

// Property-based test: for random partial 3-trees, the paper's algorithm
// always produces a valid dominating set that is never smaller than the
// scattered lower bound, and the ratio stays within a loose constant
// envelope.
func TestApproximationQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.RandomKTree(70, 3, seed)
		r := 1 + int(uint(seed)%2)
		D := AlgorithmOne(g, order.ConstructDefault(g, r), r)
		if !Check(g, D, r) {
			return false
		}
		lb := ScatteredLowerBound(g, r, D)
		if lb > len(D) {
			return false
		}
		return lb == 0 || len(D) < 30*lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
