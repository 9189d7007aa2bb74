package domset

import (
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// The tests below gate the allocations of single calls on the churn
// benchmark's sweep graph, the largest component of a geometric graph with
// n = 5,000 (seed 1), at r = 1 with the order a single worker constructs.
// The budgets sit about 15% above the measured counts.  The race detector
// allocates on its own, so the tests skip under -race; CI runs them in a
// separate non-race step.

func sweepGraph(t *testing.T) (*graph.Graph, *order.Order) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g, _ := gen.LargestComponent(gen.RandomGeometric(5000, gen.GeometricRadiusForAvgDeg(5000, 6), 1))
	opts := order.DefaultOptions(1)
	opts.Workers = 1
	return g, order.Construct(g, opts).Order
}

func checkAllocs(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(3, f)
	t.Logf("%s: %.0f allocations per call (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocated %.0f times per call, budget %.0f", name, got, budget)
	}
}

// TestAlgorithmOneAllocs gates Algorithm 1: the CSR relabelled by
// L-position (Algorithm 2), one walker, the dominated flags and the set.
func TestAlgorithmOneAllocs(t *testing.T) {
	g, o := sweepGraph(t)
	checkAllocs(t, "AlgorithmOne r=1", 29, func() { AlgorithmOne(g, o, 1) }) // measured 25
}

// TestScatteredLowerBoundAllocs gates the lower bound every solver
// attaches, with Algorithm 1's set as candidates.
func TestScatteredLowerBoundAllocs(t *testing.T) {
	g, o := sweepGraph(t)
	D := AlgorithmOne(g, o, 1)
	checkAllocs(t, "ScatteredLowerBound r=1", 10, func() { ScatteredLowerBound(g, 1, D) }) // measured 8
}
