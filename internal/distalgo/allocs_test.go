package distalgo

import (
	"runtime"
	"testing"

	"bedom/internal/dist"
	"bedom/internal/gen"
	"bedom/internal/order"
)

// The budgets below sit about 15% above the allocations and bytes measured
// per steady-state run at Workers: 1 on a 24×24 grid.  Both are
// deterministic for a fixed input and worker count, so a budget is a tight,
// noise-free gate on the simulator's hot path: the count on its small
// objects, the bytes on the arrays a pipeline takes from the one before it.
// The race detector's instrumentation allocates on its own, so the tests
// skip under -race; CI runs them in a separate non-race step.

func TestWReachDistAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := gen.Grid(24, 24)
	o, _ := order.FromDegeneracy(g)
	const budget, bytesBudget = 1325, 399_000 // measured 1,152 and 347,126
	allocs, bytes := perRun(func() {
		if _, err := RunWReachDist(g, o, 2, dist.CongestBC, dist.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunWReachDist h=2: %.0f allocations, %.0f bytes per run (budgets %d, %d)", allocs, bytes, budget, bytesBudget)
	if allocs > budget || bytes > bytesBudget {
		t.Fatalf("RunWReachDist h=2: %.0f allocations, %.0f bytes per run; budgets %d, %d", allocs, bytes, budget, bytesBudget)
	}
}

func TestDomSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := gen.Grid(24, 24)
	const budget, bytesBudget = 1310, 294_000 // measured 1,139 and 255,976
	allocs, bytes := perRun(func() {
		if _, err := RunDomSet(g, 1, dist.CongestBC, dist.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RunDomSet r=1: %.0f allocations, %.0f bytes per run (budgets %d, %d)", allocs, bytes, budget, bytesBudget)
	if allocs > budget || bytes > bytesBudget {
		t.Fatalf("RunDomSet r=1: %.0f allocations, %.0f bytes per run; budgets %d, %d", allocs, bytes, budget, bytesBudget)
	}
}

// perRun returns the allocations and bytes of one steady-state run of f:
// two warm-up runs hand the next ones released memory, then the counts are
// averaged over ten runs, at GOMAXPROCS 1 as testing.AllocsPerRun measures.
func perRun(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}
