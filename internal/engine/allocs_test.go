package engine

import (
	"context"
	"runtime"
	"testing"

	"bedom/internal/gen"
)

// TestWarmDoAllocs gates the hit path: the allocations and bytes of one
// warm Do for each sequential kind at r = 1 on the churn benchmark's sweep
// graph, the largest component of a geometric graph with n = 5,000
// (seed 1).  A warm query copies the cached answer's fields and allocates
// nothing that grows with the graph.  The budgets sit about 15% above the
// measured values.  The race detector allocates on its own, so the test
// skips under -race; CI runs it in a separate non-race step.
func TestWarmDoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g, _ := gen.LargestComponent(gen.RandomGeometric(5000, gen.GeometricRadiusForAvgDeg(5000, 6), 1))
	e := testEngine(t, Config{Workers: 1, SubstrateWorkers: 1})
	if _, err := e.Register("g", g); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind          Kind
		allocs, bytes float64
	}{
		{KindDominatingSet, 7, 655},          // measured 6 and 568
		{KindConnectedDominatingSet, 7, 655}, // measured 6 and 568
		{KindCover, 7, 655},                  // measured 6 and 568
	} {
		req := Request{Graph: "g", Kind: tc.kind, R: 1}
		do := func() {
			if _, err := e.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		do() // cold: builds the answer
		allocs, bytes := perCall(do)
		t.Logf("warm %s: %.1f allocations, %.0f bytes per Do (budgets %.0f, %.0f)", tc.kind, allocs, bytes, tc.allocs, tc.bytes)
		if allocs > tc.allocs || bytes > tc.bytes {
			t.Errorf("warm %s: %.1f allocations, %.0f bytes per Do; budgets %.0f, %.0f", tc.kind, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}

// perCall returns the allocations and bytes of one call of f, averaged over
// 100 calls after a warm-up call, at GOMAXPROCS 1 as testing.AllocsPerRun
// measures.
func perCall(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}
