package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"bedom/internal/connect"
	"bedom/internal/cover"
	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/obs"
	"bedom/internal/order"
	"bedom/internal/solver"
)

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestRegistry(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(8, 8)
	info, err := e.Register("grid", g)
	if err != nil || info.N != 64 || info.M != g.M() {
		t.Fatalf("Register: %+v %v", info, err)
	}
	if _, err := e.Register("", g); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if _, err := e.Register("nil", nil); err == nil {
		t.Fatal("nil graph must be rejected")
	}
	if got, ok := e.Lookup("grid"); !ok || got != g {
		t.Fatal("Lookup")
	}
	if _, ok := e.Lookup("absent"); ok {
		t.Fatal("Lookup of absent name")
	}
	if list := e.Graphs(); len(list) != 1 || list[0].Name != "grid" {
		t.Fatalf("Graphs: %+v", list)
	}
	if ok, err := e.Remove("grid"); !ok || err != nil {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	if ok, _ := e.Remove("grid"); ok {
		t.Fatal("double Remove reported ok")
	}
	if _, err := e.Do(context.Background(), Request{Graph: "grid", Kind: KindDominatingSet, R: 1}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("query on removed graph: %v", err)
	}
}

// TestRegisterRejectsUnfinalized: the engine reads only finalized graphs.
// Register, Do with Request.G and OrderFor reject a graph still under
// construction with ErrInvalidRequest, and leave it unfinalized.
func TestRegisterRejectsUnfinalized(t *testing.T) {
	e := testEngine(t, Config{})
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("g", g); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("Register: %v, want ErrInvalidRequest", err)
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("Do: %v, want ErrInvalidRequest", err)
	}
	if _, _, err := e.OrderFor(g, 1); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("OrderFor: %v, want ErrInvalidRequest", err)
	}
	if g.Finalized() || e.GraphCount() != 0 {
		t.Fatal("a rejected graph was finalized or registered")
	}
}

// TestConcurrentRegisterSameName races registrations of one name, each with
// its own graph, on an in-memory and on a durable engine.  Register runs one
// sequence on both, so the entry left published is the call with the largest
// generation, with its own graph, and a reopened durable engine recovers it.
func TestConcurrentRegisterSameName(t *testing.T) {
	const callers = 16
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		var e *Engine
		if durable {
			e = openPersistent(t, dir, Config{})
		} else {
			e = testEngine(t, Config{})
		}
		infos := make([]GraphInfo, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				infos[i], errs[i] = e.Register("g", gen.Path(i+2))
			}()
		}
		wg.Wait()
		var last GraphInfo
		for i, info := range infos {
			if errs[i] != nil {
				t.Fatalf("durable=%v: register %d: %v", durable, i, errs[i])
			}
			if info.N != i+2 {
				t.Fatalf("durable=%v: register %d returned n=%d, want %d", durable, i, info.N, i+2)
			}
			if info.Gen > last.Gen {
				last = info
			}
		}
		if got, ok := e.Info("g"); !ok || got != last {
			t.Fatalf("durable=%v: published %+v, want the largest generation returned, %+v", durable, got, last)
		}
		if durable {
			e.Close()
			if got, ok := openPersistent(t, dir, Config{}).Info("g"); !ok || got != last {
				t.Fatalf("reopened engine holds %+v, want %+v", got, last)
			}
		}
	}
}

// TestSingleFlight asserts the single-flight contract: many parallel
// identical queries build each needed substrate exactly once.
func TestSingleFlight(t *testing.T) {
	e := testEngine(t, Config{Workers: 8})
	if _, err := e.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	const parallel = 32
	var wg sync.WaitGroup
	responses := make([]*Response, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2})
			if err != nil {
				t.Error(err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	// The domset pipeline needs exactly three substrates: the order for r=2,
	// wcol_4 on it, and the cached solver result.  No matter how the 32
	// queries interleave, each is built exactly once.
	if st.SubstrateBuilds != 3 {
		t.Fatalf("substrates built %d times, want 3 (stats %+v)", st.SubstrateBuilds, st)
	}
	if st.CacheHits+st.Coalesced == 0 {
		t.Fatal("expected cache hits or coalesced waits")
	}
	for i := 1; i < parallel; i++ {
		if !equalInts(responses[i].Set, responses[0].Set) {
			t.Fatal("parallel identical queries disagree")
		}
	}
}

// TestLRUEviction asserts the LRU bound: the cache never exceeds its
// configured capacity, old substrates are evicted, and evicted substrates
// are rebuilt on demand.
func TestLRUEviction(t *testing.T) {
	e := testEngine(t, Config{CacheEntries: 3, Workers: 2})
	if _, err := e.Register("g", gen.Grid(12, 12)); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 4; r++ {
		if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: r}); err != nil {
			t.Fatal(err)
		}
		if n := e.cache.len(); n > 3 {
			t.Fatalf("cache holds %d entries, capacity 3", n)
		}
	}
	st := e.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, stats %+v", st)
	}
	if st.CacheEntries > st.CacheCapacity {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
	// Re-running the earliest (evicted) query rebuilds its substrates.
	before := e.Stats().SubstrateBuilds
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats().SubstrateBuilds; after <= before {
		t.Fatal("evicted substrate was not rebuilt")
	}
}

// TestEngineMatchesDirectPipeline asserts byte-identical results between the
// engine (cold and warm cache) and the direct facade-style pipeline built
// straight from the internal packages.
func TestEngineMatchesDirectPipeline(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Apollonian(150, 3)
	if _, err := e.Register("g", g); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2} {
		// Direct path: exactly what api.go's DominatingSet used to run.
		o := order.ConstructDefault(g, r)
		wantD := domset.AlgorithmOne(g, o, r)
		wantLB := domset.ScatteredLowerBound(g, r, wantD)
		wantWcol := order.WColMeasure(g, o, 2*r)

		for pass, label := range []string{"cold", "warm"} {
			resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: r})
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(resp.Set, wantD) || resp.LowerBound != wantLB || resp.Wcol != wantWcol {
				t.Fatalf("r=%d %s: engine diverges from direct pipeline", r, label)
			}
			if pass == 1 && !resp.CacheHit {
				t.Fatalf("r=%d: warm query should be a cache hit", r)
			}
		}

		// Connected pipeline.  A cold query builds two substrates, the
		// radius-(2r+1) order and the answer, whose build runs the one
		// traversal that serves both wcol and the closure's witness paths;
		// a warm query builds none.
		oc := order.ConstructDefault(g, 2*r+1)
		wantDc := domset.AlgorithmOne(g, oc, r)
		wantSet := connect.Closure(g, oc, wantDc, r)
		wantCWcol := order.WColMeasure(g, oc, 2*r+1)
		for pass, label := range []string{"cold", "warm"} {
			builds := e.Stats().SubstrateBuilds
			cresp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindConnectedDominatingSet, R: r})
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(cresp.Set, wantSet) || !equalInts(cresp.DomSet, wantDc) || cresp.Wcol != wantCWcol {
				t.Fatalf("r=%d %s: connected engine result diverges", r, label)
			}
			if got, want := e.Stats().SubstrateBuilds-builds, uint64(2*(1-pass)); got != want || cresp.CacheHit != (pass == 1) {
				t.Fatalf("r=%d %s: cds built %d substrates (want %d), cache hit %v", r, label, got, want, cresp.CacheHit)
			}
		}
	}
}

func TestCoverQuery(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(10, 10)
	resp, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := resp.CoverData()
	if c == nil || resp.Size != c.NumClusters() || resp.CoverMaxRadius > 4 {
		t.Fatalf("cover response %+v", resp)
	}
	if err := c.Verify(g); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 2})
	if err != nil || !warm.CacheHit || warm.CoverData() != c {
		t.Fatalf("warm cover query should share the cached substrate: %+v %v", warm, err)
	}
}

// TestCoverAnswerMatchesInversion: a cold cover answer reads its size,
// degree and radius off the (r, 2r) sweep, and they equal those of the
// cover inverted from that sweep, on generated graphs, a single vertex and
// a graph with isolated vertices, at every substrate worker count.
func TestCoverAnswerMatchesInversion(t *testing.T) {
	single := graph.New(1)
	single.Finalize()
	graphs := map[string]*graph.Graph{
		"grid":       gen.Grid(9, 9),
		"apollonian": gen.Apollonian(300, 3),
		"geometric":  gen.RandomGeometric(2000, gen.GeometricRadiusForAvgDeg(2000, 6), 5),
		"isolated":   graph.MustFromEdges(7, [][2]int{{0, 1}, {1, 2}, {4, 5}}),
		"single":     single,
	}
	for name, g := range graphs {
		for _, workers := range []int{1, 2, 8} {
			e := testEngine(t, Config{SubstrateWorkers: workers})
			for _, r := range []int{1, 2} {
				resp, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: r})
				if err != nil || resp.CacheHit {
					t.Fatalf("%s r=%d workers=%d: cold cover %+v, %v", name, r, workers, resp, err)
				}
				o, _, err := e.OrderFor(g, r)
				if err != nil {
					t.Fatal(err)
				}
				sw := order.WReachSweep(g, o, 2*r, r, workers)
				c := cover.BuildFromHomes(r, sw.Homes, sw.Sets, workers)
				st := c.ComputeStats(g)
				if resp.Size != c.NumClusters() || resp.CoverDegree != c.Degree() || resp.CoverMaxRadius != st.MaxRadius {
					t.Fatalf("%s r=%d workers=%d: answer size %d, degree %d, radius %d; inversion %d, %d, %d",
						name, r, workers, resp.Size, resp.CoverDegree, resp.CoverMaxRadius, c.NumClusters(), c.Degree(), st.MaxRadius)
				}
			}
		}
	}
}

// TestCoverQueryBuildsNoClusters: a cover answer read without
// IncludeClusters, cold or warm, has not inverted its clusters: the cover
// build label times the answer's build once and no inversion.
func TestCoverQueryBuildsNoClusters(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(12, 12)); err != nil {
		t.Fatal(err)
	}
	builds := e.stats.buildSeconds.With("cover")
	for pass := 0; pass < 2; pass++ {
		resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindCover, R: 1})
		if err != nil || resp.CacheHit != (pass == 1) {
			t.Fatalf("pass %d: %+v, %v", pass, resp, err)
		}
		if n := builds.Count(); resp.Clusters != nil || n != 1 {
			t.Fatalf("pass %d: %d cover builds timed, want the answer's alone", pass, n)
		}
	}
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindCover, R: 1, IncludeClusters: true}); err != nil || builds.Count() != 2 {
		t.Fatalf("include_clusters timed %d cover builds (%v), want the answer's and one inversion", builds.Count(), err)
	}
}

// TestCoverClustersInvertedOnce: the first CoverData or include_clusters
// read of a cached cover answer inverts its clusters, once, under the
// cover build label, even when several queries read them at once; every
// later read, warm hits included, returns the same cover, whose cluster map
// is cover.Build's.
func TestCoverClustersInvertedOnce(t *testing.T) {
	g := gen.Apollonian(300, 3)
	for _, viaClusters := range []bool{false, true} {
		e := testEngine(t, Config{})
		if _, err := e.Register("g", g); err != nil {
			t.Fatal(err)
		}
		req := Request{Graph: "g", Kind: KindCover, R: 2}
		cold, err := e.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		o, _, err := e.OrderFor(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := cover.Build(g, o, 2).ClusterMap()
		inversions := e.stats.buildSeconds.With("cover")
		before := inversions.Count()
		req.IncludeClusters = viaClusters
		read := func() (*cover.Cover, error) {
			resp, err := e.Do(context.Background(), req)
			if err != nil {
				return nil, err
			}
			if !resp.CacheHit {
				return nil, errors.New("warm cover query missed the cache")
			}
			if viaClusters && !reflect.DeepEqual(resp.Clusters, want) {
				return nil, errors.New("include_clusters map differs from cover.Build's")
			}
			return resp.CoverData(), nil
		}
		got := make([]*cover.Cover, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := read()
				if err != nil {
					t.Error(err)
				}
				got[i] = c
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		first := got[0]
		for i, c := range append(got, cold.CoverData()) {
			if c == nil || c != first {
				t.Fatalf("include_clusters=%v: read %d returned cover %p, want %p", viaClusters, i, c, first)
			}
		}
		if c, err := read(); err != nil || c != first {
			t.Fatalf("include_clusters=%v: a later warm read returned %p (%v), want %p", viaClusters, c, err, first)
		}
		if n := inversions.Count() - before; n != 1 {
			t.Fatalf("include_clusters=%v: clusters inverted %d times, want 1", viaClusters, n)
		}
		if !reflect.DeepEqual(first.ClusterMap(), want) {
			t.Fatalf("include_clusters=%v: cluster map differs from cover.Build's", viaClusters)
		}
	}
}

func TestDistributedQuery(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(9, 9)
	resp, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedDominatingSet, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !domset.Check(g, resp.Set, 1) || resp.Rounds == 0 || resp.Messages == 0 {
		t.Fatalf("distributed response %+v", resp)
	}
	cresp, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedConnected, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !connect.CheckConnected(g, cresp.Set, 1) || len(cresp.DomSet) > len(cresp.Set) {
		t.Fatalf("distributed connected response %+v", cresp)
	}
}

func TestValidation(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(4, 4)
	cases := []Request{
		{G: g, Kind: KindDominatingSet, R: 0},
		{G: g, Kind: KindDominatingSet, R: MaxRadius + 1},
		{G: g, Kind: KindCover, R: 1 << 62},
		{G: g, Kind: KindConnectedDominatingSet, R: 1 << 62},
		{G: g, Kind: "nonsense", R: 1},
		{Kind: KindDominatingSet, R: 1}, // no graph
	}
	for _, req := range cases {
		if _, err := e.Do(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("request %+v: want ErrInvalidRequest, got %v", req, err)
		}
	}
	disc, _ := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if _, err := e.Do(context.Background(), Request{G: disc, Kind: KindConnectedDominatingSet, R: 1}); err == nil {
		t.Fatal("disconnected graph must be rejected for cds")
	}
}

// TestLargeRadiusStopsAtFixpoint: a radius far beyond the graph's diameter
// costs no more than one just past it, because the order construction stops
// once an augmentation round adds nothing (on a 10×10 grid, after round 8).
func TestLargeRadiusStopsAtFixpoint(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(10, 10)
	start := time.Now()
	resp, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("domset r=10000 on a 10x10 grid took %v", el)
	}
	if !domset.Check(g, resp.Set, 10_000) {
		t.Fatalf("invalid r=10000 dominating set %v", resp.Set)
	}
}

// TestConnectedKindsRejectDisconnectedGraphs: both connected kinds refuse a
// disconnected graph with ErrNotConnected.  On two disjoint paths the
// distributed pipeline would otherwise answer a set that no connected
// dominating set check accepts.
func TestConnectedKindsRejectDisconnectedGraphs(t *testing.T) {
	e := testEngine(t, Config{})
	disc := graph.MustFromEdges(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}})
	for _, kind := range []Kind{KindConnectedDominatingSet, KindDistributedConnected} {
		if _, err := e.Do(context.Background(), Request{G: disc, Kind: kind, R: 1}); !errors.Is(err, ErrNotConnected) {
			t.Fatalf("%s on a disconnected graph: want ErrNotConnected, got %v", kind, err)
		}
	}
	if runs := e.DistRuns(); len(runs) != 0 {
		t.Fatalf("a rejected dist-cds query ran the simulator: %d retained runs", len(runs))
	}
	// The cds rejection is one failed answer build, and failures are not
	// cached.
	if st := e.Stats(); st.SubstrateBuilds != 1 || st.CacheEntries != 0 {
		t.Fatalf("rejected cds: %d builds, %d cache entries; want 1 and 0", st.SubstrateBuilds, st.CacheEntries)
	}
}

// TestWarmConnectedIsCachedAnswer: a second identical cds query is served
// from the cached answer: the same Set and DomSet slices as the first, no
// substrate built, and cache_hit true.
func TestWarmConnectedIsCachedAnswer(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Apollonian(150, 3)); err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: "g", Kind: KindConnectedDominatingSet, R: 1}
	cold, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	builds := e.Stats().SubstrateBuilds
	warm, err := e.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if &warm.Set[0] != &cold.Set[0] || &warm.DomSet[0] != &cold.DomSet[0] {
		t.Fatal("a warm cds query recomputed its sets")
	}
	if got := e.Stats().SubstrateBuilds; got != builds || cold.CacheHit || !warm.CacheHit {
		t.Fatalf("warm cds built %d substrates; cache_hit cold %v, warm %v", got-builds, cold.CacheHit, warm.CacheHit)
	}
}

// TestCacheHitRule: cache_hit has one meaning for every kind.  A cold query
// computes its answer (false) and an identical warm one is served it from
// the cache (true), for every sequential kind and solver; the distributed
// kinds are never cached (false both times).
func TestCacheHitRule(t *testing.T) {
	g := gen.Grid(8, 8)
	var reqs []Request
	for _, name := range solver.Names() {
		reqs = append(reqs, Request{G: g, Kind: KindDominatingSet, R: 1, Solver: name})
	}
	reqs = append(reqs,
		Request{G: g, Kind: KindConnectedDominatingSet, R: 1},
		Request{G: g, Kind: KindCover, R: 1},
		Request{G: g, Kind: KindDistributedDominatingSet, R: 1, Solver: "paper"},
		Request{G: g, Kind: KindDistributedDominatingSet, R: 1, Solver: "kubsv"},
		Request{G: g, Kind: KindDistributedConnected, R: 1},
	)
	for _, req := range reqs {
		sequential := req.Kind == KindDominatingSet || req.Kind == KindConnectedDominatingSet || req.Kind == KindCover
		e := testEngine(t, Config{})
		for pass, want := range []bool{false, sequential} {
			resp, err := e.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.CacheHit != want {
				t.Fatalf("%s %s pass %d: cache_hit %v, want %v", req.Kind, req.Solver, pass, resp.CacheHit, want)
			}
		}
	}
}

func TestAnonymousGraphMutationInvalidates(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(6, 6)
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	builds := e.Stats().SubstrateBuilds
	// Warm query: no new builds.
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubstrateBuilds; got != builds {
		t.Fatalf("warm query rebuilt substrates (%d -> %d)", builds, got)
	}
	// A finalized graph cannot change, so its cached generation stays
	// valid: the insertion fails and the next query is still a hit.
	if err := g.AddEdge(0, 35); !errors.Is(err, graph.ErrFinalized) {
		t.Fatalf("AddEdge on a facade graph: %v, want ErrFinalized", err)
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubstrateBuilds; got != builds {
		t.Fatalf("query after a rejected insertion rebuilt substrates (%d -> %d)", builds, got)
	}
}

// TestAnonymousSubstratesReleasedOnGC asserts that substrates cached for a
// facade-path graph are purged once the graph itself is collected, instead
// of occupying LRU slots until capacity churn.
func TestAnonymousSubstratesReleasedOnGC(t *testing.T) {
	e := testEngine(t, Config{})
	func() {
		g := gen.Grid(10, 10)
		if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); err != nil {
			t.Fatal(err)
		}
	}()
	if e.cache.len() == 0 {
		t.Fatal("expected cached substrates before collection")
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.cache.len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("substrates of a collected graph were not purged (%d left)", e.cache.len())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReRegisterPurgesCache(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(6, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	entries := e.cache.len()
	if entries == 0 {
		t.Fatal("expected cached substrates")
	}
	if _, err := e.Register("g", gen.Grid(7, 7)); err != nil {
		t.Fatal(err)
	}
	if got := e.cache.len(); got != 0 {
		t.Fatalf("re-registration left %d stale entries", got)
	}
	resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
	if err != nil || resp.CacheHit {
		t.Fatalf("query after re-registration must rebuild: %+v %v", resp, err)
	}
}

// TestPurgedGenerationNotCached asserts that a substrate build finishing
// after its graph generation was purged (graph removed or re-registered
// mid-build) is returned to its waiters but not inserted into the LRU.
func TestPurgedGenerationNotCached(t *testing.T) {
	c := newSubstrateCache(8, newStatsCollector(obs.NewRegistry()))
	key := substrateKey{gen: 42, kind: kindOrder, a: 1}
	v, hit, err := c.getOrBuild(context.Background(), key, func() (any, error) {
		c.purge(42) // the graph disappears while the build runs
		return "substrate", nil
	})
	if err != nil || hit || v != "substrate" {
		t.Fatalf("getOrBuild: %v %v %v", v, hit, err)
	}
	if c.len() != 0 {
		t.Fatalf("retired-generation build was cached (%d entries)", c.len())
	}
}

func TestQueryTimeout(t *testing.T) {
	e := testEngine(t, Config{Workers: 1})
	g := gen.Grid(40, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired context: the query must not run
	if _, err := e.Do(ctx, Request{G: g, Kind: KindDominatingSet, R: 2}); err == nil {
		t.Fatal("cancelled context must fail the query")
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 2, Timeout: time.Nanosecond}); err == nil {
		t.Fatal("nanosecond timeout must fail the query")
	}
	if ts := e.Stats().Timeouts; ts == 0 {
		t.Fatal("timeout must be counted")
	}
	// The engine still serves after timeouts.
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestBatch(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(10, 10)); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Graph: "g", Kind: KindDominatingSet, R: 1},
		{Graph: "g", Kind: KindDominatingSet, R: 1}, // duplicate: shares substrate
		{Graph: "g", Kind: KindCover, R: 1},
		{Graph: "missing", Kind: KindDominatingSet, R: 1},
		{Graph: "g", Kind: KindDominatingSet, R: 1, Solver: "greedy"},
	}
	results := e.Batch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results", len(results))
	}
	for _, i := range []int{0, 1, 2, 4} {
		if results[i].Err != nil {
			t.Fatalf("entry %d failed: %v", i, results[i].Err)
		}
	}
	if !equalInts(results[0].Response.Set, results[1].Response.Set) {
		t.Fatal("duplicate batch entries disagree")
	}
	if !errors.Is(results[3].Err, ErrUnknownGraph) {
		t.Fatalf("entry 3: want ErrUnknownGraph, got %v", results[3].Err)
	}
}

// TestBatchDoesNotShedItself: a batch submits at most Workers entries at
// once, so on an idle engine whose one-slot queue sheds at once, every
// entry of a batch of distinct cold queries is answered.
func TestBatchDoesNotShedItself(t *testing.T) {
	e := testEngine(t, Config{Workers: 1, QueueDepth: 1, QueueWaitBudget: -1})
	if _, err := e.Register("g", gen.Grid(30, 30)); err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for r := 1; r <= 4; r++ {
		reqs = append(reqs, Request{Graph: "g", Kind: KindDominatingSet, R: r})
	}
	for i, res := range e.Batch(context.Background(), reqs) {
		if res.Err != nil {
			t.Fatalf("entry %d (r=%d) failed: %v", i, reqs[i].R, res.Err)
		}
		if res.Response.R != reqs[i].R {
			t.Fatalf("entry %d answers r=%d, want %d", i, res.Response.R, reqs[i].R)
		}
	}
	if st := e.Stats(); st.QueriesShed != 0 {
		t.Fatalf("QueriesShed = %d, want 0", st.QueriesShed)
	}
}

// TestWorkersBoundConcurrentBuilds pins the one bound on concurrent
// substrate builds: each build runs on the worker of the query that missed,
// and nested builds run inside it, so cold queries on distinct graphs never
// have more order builds in flight than Workers.
func TestWorkersBoundConcurrentBuilds(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak, builds := 0, 0, 0
	hook := func(stage string) {
		if stage != "substrate:order" {
			return
		}
		mu.Lock()
		inFlight++
		builds++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
	}
	e := testEngine(t, Config{Workers: 2, StageHook: hook})
	kinds := []Kind{KindDominatingSet, KindCover, KindConnectedDominatingSet}
	const queries = 6
	errs := make(chan error, queries)
	var wg sync.WaitGroup
	for i := range queries {
		// Distinct graphs: no two queries share a substrate, so each one
		// builds exactly one order (cover's nested wreach builds share it).
		req := Request{G: gen.Grid(6, 6+i), Kind: kinds[i%len(kinds)], R: 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Do(context.Background(), req)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if builds != queries {
		t.Fatalf("%d order builds, want %d", builds, queries)
	}
	if peak > 2 {
		t.Fatalf("%d order builds in flight at once with Workers 2", peak)
	}
}

func TestCloseStopsQueries(t *testing.T) {
	e := New(Config{Workers: 1})
	e.Close()
	_, err := e.Do(context.Background(), Request{G: gen.Grid(4, 4), Kind: KindDominatingSet, R: 1})
	if !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed, got %v", err)
	}
}

func TestOrderForSharesFacadeSubstrate(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(8, 8)
	o1, hit1, err := e.OrderFor(g, 2)
	if err != nil || hit1 {
		t.Fatalf("cold OrderFor: hit=%v err=%v", hit1, err)
	}
	o2, hit2, err := e.OrderFor(g, 2)
	if err != nil || !hit2 || o2 != o1 {
		t.Fatal("warm OrderFor must return the cached order")
	}
	// A domset query for the same radius reuses the same order substrate.
	before := e.Stats().SubstrateBuilds
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 2}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubstrateBuilds; got != before+2 { // wcol + result; the order is reused
		t.Fatalf("domset after OrderFor built %d substrates, want 2", got-before)
	}
}

// --- helpers --------------------------------------------------------------

func equalInts(a, b []int) bool {
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

// TestSubstrateWorkersDeterminism asserts that the engine serves
// bit-identical query results for every substrate worker count — the same
// determinism contract internal/dist enforces for its simulator pool, whose
// workers the same setting bounds in the distributed kinds.
func TestSubstrateWorkersDeterminism(t *testing.T) {
	g := gen.Grid(24, 24) // above the substrate parallel threshold
	type outcome struct {
		set        []int
		lb, wcol   int
		covSize    int
		covDegree  int
		covRadius  int
		covCenters []int
		cdsSet     []int
		cdsDomSet  []int
		cdsWcol    int
	}
	// distOutcome is a distributed query's answer and simulator cost.
	type distOutcome struct {
		set, domSet []int
		rounds      int
		messages    int64
	}
	dists := []Request{
		{G: g, Kind: KindDistributedDominatingSet, R: 1},
		{G: g, Kind: KindDistributedDominatingSet, R: 1, Solver: "kubsv"},
		{G: g, Kind: KindDistributedConnected, R: 1},
	}
	var base *outcome
	var distBase []distOutcome
	for _, workers := range []int{1, 2, 8} {
		e := testEngine(t, Config{SubstrateWorkers: workers})
		for i, req := range dists {
			resp, err := e.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got := distOutcome{resp.Set, resp.DomSet, resp.Rounds, resp.Messages}
			if workers == 1 {
				distBase = append(distBase, got)
				continue
			}
			want := distBase[i]
			if !equalInts(got.set, want.set) || !equalInts(got.domSet, want.domSet) ||
				got.rounds != want.rounds || got.messages != want.messages {
				t.Fatalf("%s %q differs at %d substrate workers: %d vertices, %d rounds, %d messages; want %d, %d, %d",
					req.Kind, req.Solver, workers, len(got.set), got.rounds, got.messages,
					len(want.set), want.rounds, want.messages)
			}
		}
		dom, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 2})
		if err != nil {
			t.Fatal(err)
		}
		cov, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 1})
		if err != nil {
			t.Fatal(err)
		}
		cds, err := e.Do(context.Background(), Request{G: g, Kind: KindConnectedDominatingSet, R: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := &outcome{
			set: dom.Set, lb: dom.LowerBound, wcol: dom.Wcol,
			covSize: cov.Size, covDegree: cov.CoverDegree, covRadius: cov.CoverMaxRadius,
			covCenters: cov.CoverData().Centers(),
			cdsSet:     cds.Set,
			cdsDomSet:  cds.DomSet,
			cdsWcol:    cds.Wcol,
		}
		if base == nil {
			base = got
			continue
		}
		if !equalInts(base.set, got.set) || base.lb != got.lb || base.wcol != got.wcol {
			t.Fatalf("domset result differs at %d substrate workers", workers)
		}
		if base.covSize != got.covSize || base.covDegree != got.covDegree ||
			base.covRadius != got.covRadius || !equalInts(base.covCenters, got.covCenters) {
			t.Fatalf("cover result differs at %d substrate workers", workers)
		}
		if !equalInts(base.cdsSet, got.cdsSet) || !equalInts(base.cdsDomSet, got.cdsDomSet) || base.cdsWcol != got.cdsWcol {
			t.Fatalf("cds result differs at %d substrate workers", workers)
		}
	}
}
