package distalgo

import (
	"testing"

	"bedom/internal/dist"
	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

func TestRunRefinedOrderProducesValidOrder(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(12, 12)},
		{"apollonian", gen.Apollonian(120, 3)},
		{"tree", gen.RandomTree(120, 5)},
		{"geometric", largestComp(gen.RandomGeometric(160, 0.12, 7))},
	}
	for _, tc := range cases {
		probe := &dist.Probe{}
		res, err := RunRefinedOrder(tc.g, 2, 0, dist.CongestBC, dist.Options{Probe: probe})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Order.N() != tc.g.N() || res.BaseOrder.N() != tc.g.N() {
			t.Fatalf("%s: order size mismatch", tc.name)
		}
		// The refined order must be a permutation (FromPermutation validates
		// this internally; re-check via positions).
		seen := make([]bool, tc.g.N())
		for v := 0; v < tc.g.N(); v++ {
			p := res.Order.Pos(v)
			if p < 0 || p >= tc.g.N() || seen[p] {
				t.Fatalf("%s: invalid position %d for vertex %d", tc.name, p, v)
			}
			seen[p] = true
		}
		if got := len(probe.Profiles()); got != 3 {
			t.Fatalf("%s: expected 3 phases, got %d", tc.name, got)
		}
		if res.Stats.Rounds <= 0 {
			t.Fatalf("%s: no rounds recorded", tc.name)
		}
	}
}

func TestRefinedOrderQualityVsBase(t *testing.T) {
	// The refined order should not be dramatically worse than the base
	// H-partition order; on grids it is usually strictly better in terms of
	// the dominating set it induces.
	g := gen.Grid(16, 16)
	r := 1
	res, err := RunRefinedOrder(g, 2*r, 0, dist.CongestBC, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseD := domset.FromOrder(g, res.BaseOrder, r)
	refinedD := domset.FromOrder(g, res.Order, r)
	if !domset.Check(g, refinedD, r) {
		t.Fatal("refined-order dominating set invalid")
	}
	if len(refinedD) > len(baseD)+len(baseD)/4 {
		t.Errorf("refined order much worse than base: %d vs %d", len(refinedD), len(baseD))
	}
	// The measured wcol stays a sane constant.
	if wc := order.WColMeasure(g, res.Order, 2*r); wc > 40 {
		t.Errorf("refined order wcol_2r = %d unexpectedly large", wc)
	}
}

func TestRunDomSetRefinedPipeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(14, 14)},
		{"apollonian", gen.Apollonian(140, 9)},
	} {
		probe := &dist.Probe{}
		res, err := RunDomSetRefined(tc.g, 1, dist.CongestBC, dist.Options{Probe: probe})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !domset.Check(tc.g, res.Set, 1) {
			t.Fatalf("%s: refined pipeline output does not dominate", tc.name)
		}
		if got := len(probe.Profiles()); got != 5 {
			t.Fatalf("%s: expected 5 phases, got %d", tc.name, got)
		}
	}
}

func TestRunRefinedOrderRejectsBadHorizon(t *testing.T) {
	if _, err := RunRefinedOrder(gen.Path(5), 0, 0, dist.CongestBC, dist.Options{}); err == nil {
		t.Fatal("horizon 0 must be rejected")
	}
}

func TestRefinedOrderRoundsStayModest(t *testing.T) {
	// Rounds must stay far below linear: O(horizon·log n) plus constants.
	g := gen.Grid(20, 20)
	res, err := RunRefinedOrder(g, 4, 0, dist.CongestBC, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds > 30*intLog2(g.N())+60 {
		t.Fatalf("refined order used %d rounds on n=%d", res.Stats.Rounds, g.N())
	}
}
