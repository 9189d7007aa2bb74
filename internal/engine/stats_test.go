package engine

import (
	"context"
	"strings"
	"sync"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/obs"
)

// TestStatsNoTornReads hammers warm cached queries concurrently with Stats
// snapshots: because Do counts a query before it runs and Stats loads cache
// hits before the query counters, no snapshot may ever report more hits than
// queries.
func TestStatsNoTornReads(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(12, 12)); err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: "g", Kind: KindDominatingSet, R: 1}
	if _, err := e.Do(context.Background(), req); err != nil {
		t.Fatal(err) // warm the domset substrate: later queries are pure hits
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Do(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		st := e.Stats()
		if st.CacheHits > st.Queries {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: cache_hits=%d > queries=%d", st.CacheHits, st.Queries)
		}
	}
	close(stop)
	wg.Wait()
}

// TestBuildAccounting pins the build accounting of one engine that answers
// every sequential kind and solver, and a distributed query, at r = 1 and 2:
// how many builds each stage label times, how many fetches hit or miss the
// cache, and that exclusive build times never add up to more than the
// queries that ran them (a nested build counted in its parent too would).
// Per radius, the misses are six answers, two orders (r and cds's 2r+1) and
// two sweeps; the cds witness traversal is an uncached wreach build, and the
// include_clusters read of the cached cover answer times one inversion.
func TestBuildAccounting(t *testing.T) {
	g, _ := gen.LargestComponent(gen.RandomGeometric(3000, gen.GeometricRadiusForAvgDeg(3000, 6), 7))
	e := testEngine(t, Config{})
	if _, err := e.Register("g", g); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2} {
		for _, req := range []Request{
			{Kind: KindDominatingSet, Solver: "paper"},
			{Kind: KindDominatingSet, Solver: "dvorak"},
			{Kind: KindDominatingSet, Solver: "order-greedy"},
			{Kind: KindDominatingSet, Solver: "greedy"},
			{Kind: KindCover},
			{Kind: KindCover, IncludeClusters: true},
			{Kind: KindConnectedDominatingSet},
			{Kind: KindDistributedDominatingSet},
		} {
			req.Graph, req.R = "g", r
			if _, err := e.Do(context.Background(), req); err != nil {
				t.Fatalf("r=%d %s %s: %v", r, req.Kind, req.Solver, err)
			}
		}
	}
	for stage, want := range map[string]uint64{"order": 4, "wreach": 6, "cover": 4, "solve": 10} {
		if got := e.stats.buildSeconds.With(stage).Count(); got != want {
			t.Errorf("stage %s timed %d builds, want %d", stage, got, want)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 20 || st.CacheHits != 10 || st.Coalesced != 0 {
		t.Errorf("cache misses %d, hits %d, coalesced %d; want 20, 10, 0", st.CacheMisses, st.CacheHits, st.Coalesced)
	}
	if st.BuildMSTotal > st.QueryMSTotal {
		t.Errorf("exclusive build time %.3f ms exceeds the queries' %.3f ms", st.BuildMSTotal, st.QueryMSTotal)
	}
}

// TestStatsMatchesRegistry runs a mixed workload against an engine wired to
// an explicit registry and checks the JSON Stats and the Prometheus
// exposition agree (they read the same counters by construction).
func TestStatsMatchesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Metrics: reg})
	defer e.Close()
	if _, err := e.Register("g", gen.Grid(10, 10)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, req := range []Request{
		{Graph: "g", Kind: KindDominatingSet, R: 1},
		{Graph: "g", Kind: KindDominatingSet, R: 1},
		{Graph: "g", Kind: KindCover, R: 1},
		{Graph: "g", Kind: KindDominatingSet, R: 1, Solver: "greedy"},
	} {
		if _, err := e.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 55}}}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Queries != 4 || st.Mutations != 1 {
		t.Fatalf("queries=%d mutations=%d, want 4/1", st.Queries, st.Mutations)
	}
	var kindTotal uint64
	for _, kc := range st.PerKind {
		kindTotal += kc.Count
	}
	if kindTotal != st.Queries {
		t.Fatalf("per-kind total %d != queries %d", kindTotal, st.Queries)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`bedom_queries_total{kind="domset",solver="paper"} 2`,
		`bedom_queries_total{kind="cover",solver=""} 1`,
		`bedom_queries_total{kind="domset",solver="greedy"} 1`,
		`bedom_mutations_total 1`,
		`# TYPE bedom_query_seconds histogram`,
		`bedom_substrate_build_seconds_count{stage="order"}`,
		`bedom_substrate_build_seconds_count{stage="wreach"}`,
		`bedom_substrate_build_seconds_count{stage="cover"}`,
		`bedom_substrate_build_seconds_count{stage="solve"}`,
		`bedom_graphs 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if st.CacheHits != e.stats.cacheHits.Value() {
		t.Fatalf("stats/registry cache-hit divergence: %d vs %d", st.CacheHits, e.stats.cacheHits.Value())
	}
}
