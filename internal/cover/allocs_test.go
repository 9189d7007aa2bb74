package cover

import (
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// The tests below gate the allocations of the cover build and of its
// statistics on the churn benchmark's sweep graph, the largest
// component of a geometric graph with n = 5,000 (seed 1), at r = 1 and
// Workers 1.  The budgets sit about 15% above the measured counts.  The
// race detector allocates on its own, so the tests skip under -race; CI
// runs them in a separate non-race step.

func sweepSets(t *testing.T) (g *graph.Graph, setsR, sets2R order.Sets) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g, _ = gen.LargestComponent(gen.RandomGeometric(5000, gen.GeometricRadiusForAvgDeg(5000, 6), 1))
	opts := order.DefaultOptions(1)
	opts.Workers = 1
	o := order.Construct(g, opts).Order
	return g, order.WReachSetsWorkers(g, o, 1, 1), order.WReachSetsWorkers(g, o, 2, 1)
}

func checkAllocs(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(3, f)
	t.Logf("%s: %.0f allocations per call (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocated %.0f times per call, budget %.0f", name, got, budget)
	}
}

// TestBuildFromSetsAllocs gates the sweep's cover.build_allocs row, and
// BuildFromHomes, the engine's cover build, at the same budget.
func TestBuildFromSetsAllocs(t *testing.T) {
	g, setsR, sets2R := sweepSets(t)
	checkAllocs(t, "BuildFromSets r=1", 12, func() { BuildFromSets(g, 1, setsR, sets2R, 1) }) // measured 10
	homes := make([]int, g.N())
	for w := range homes {
		homes[w] = int(setsR.Of(w)[0])
	}
	checkAllocs(t, "BuildFromHomes r=1", 12, func() { BuildFromHomes(1, homes, sets2R, 1) }) // measured 9
}

// TestComputeStatsAllocs gates the cover statistics the CLI and E2 measure:
// one walker for every cluster radius of the worker block.
func TestComputeStatsAllocs(t *testing.T) {
	g, setsR, sets2R := sweepSets(t)
	c := BuildFromSets(g, 1, setsR, sets2R, 1)
	checkAllocs(t, "ComputeStatsWorkers r=1", 13, func() { c.ComputeStatsWorkers(g, 1) }) // measured 11
}
