package distalgo

import (
	"testing"

	"bedom/internal/dist"
	"bedom/internal/gen"
	"bedom/internal/order"
)

// The allocation budgets below sit about 15% above the measured counts of a
// Workers: 1 run on a 24×24 grid.  Allocations are deterministic for a fixed
// input and worker count, so a budget is a tight, noise-free gate on the
// simulator's hot path.  The race detector's instrumentation allocates on
// its own, so the tests skip under -race; CI runs them in a separate non-race
// step.

func TestWReachDistAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := gen.Grid(24, 24)
	o, _ := order.FromDegeneracy(g)
	const budget = 1340 // measured 1165
	got := testing.AllocsPerRun(5, func() {
		if _, err := RunWReachDist(g, o, 2, dist.CongestBC, dist.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunWReachDist h=2: %.0f allocations per run (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("RunWReachDist h=2 allocated %.0f times per run, budget %d", got, budget)
	}
}

func TestDomSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := gen.Grid(24, 24)
	const budget = 1335 // measured 1160
	got := testing.AllocsPerRun(5, func() {
		if _, err := RunDomSet(g, 1, dist.CongestBC, dist.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunDomSet r=1: %.0f allocations per run (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("RunDomSet r=1 allocated %.0f times per run, budget %d", got, budget)
	}
}
