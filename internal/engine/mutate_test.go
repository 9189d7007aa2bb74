package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// mutateTestDelta is the delta the determinism tests apply on top of a
// 24×24 grid: edge insertions (including one touching fresh vertices),
// removals, and counted no-ops.
func mutateTestDelta() Delta {
	return Delta{
		AddVertices: 2,
		Add:         [][2]int{{0, 50}, {100, 200}, {575, 576}, {576, 577}, {0, 1}},
		Remove:      [][2]int{{0, 24}, {0, 100}},
	}
}

// finalTopology builds, from scratch, the graph a 24×24 grid becomes after
// mutateTestDelta — the reference for the mutate-then-query ≡
// fresh-build-of-final-topology contract.
func finalTopology(t *testing.T) *graph.Graph {
	t.Helper()
	base := gen.Grid(24, 24)
	edges := base.Edges()
	kept := edges[:0]
	for _, e := range edges {
		if e == [2]int{0, 24} {
			continue
		}
		kept = append(kept, e)
	}
	kept = append(kept, [2]int{0, 50}, [2]int{100, 200}, [2]int{575, 576}, [2]int{576, 577})
	g, err := graph.FromEdges(base.N()+2, kept)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMutateDeterminism asserts the PR's acceptance contract: a graph that
// is registered, queried, mutated and queried again returns results
// byte-identical to a fresh engine serving the final topology — orders,
// dominating sets and covers — for substrate worker counts 1, 2 and 8.
func TestMutateDeterminism(t *testing.T) {
	final := finalTopology(t)
	for _, workers := range []int{1, 2, 8} {
		mutated := testEngine(t, Config{SubstrateWorkers: workers})
		if _, err := mutated.Register("g", gen.Grid(24, 24)); err != nil {
			t.Fatal(err)
		}
		// Warm the cache on the pre-mutation topology so the mutated-path
		// results can only match if invalidation really discards it.
		if _, err := mutated.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2}); err != nil {
			t.Fatal(err)
		}
		info, err := mutated.Mutate("g", mutateTestDelta())
		if err != nil {
			t.Fatal(err)
		}
		if info.EdgesAdded != 4 || info.EdgesRemoved != 1 || info.DuplicateAdds != 1 ||
			info.MissingRemoves != 1 || info.VerticesAdded != 2 {
			t.Fatalf("workers=%d: delta result %+v", workers, info)
		}
		if info.Graph.N != final.N() || info.Graph.M != final.M() {
			t.Fatalf("workers=%d: post-mutation graph %+v, want n=%d m=%d",
				workers, info.Graph, final.N(), final.M())
		}

		fresh := testEngine(t, Config{SubstrateWorkers: workers})
		if _, err := fresh.Register("g", final); err != nil {
			t.Fatal(err)
		}

		for _, kind := range []Kind{KindDominatingSet, KindCover} {
			a, err := mutated.Do(context.Background(), Request{Graph: "g", Kind: kind, R: 2})
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.Do(context.Background(), Request{Graph: "g", Kind: kind, R: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(a.Set, b.Set) || a.Size != b.Size || a.LowerBound != b.LowerBound || a.Wcol != b.Wcol {
				t.Fatalf("workers=%d kind=%s: mutated engine diverges from fresh build", workers, kind)
			}
			if kind == KindCover {
				ca, cb := a.CoverData(), b.CoverData()
				if !equalInts(ca.Centers(), cb.Centers()) {
					t.Fatalf("workers=%d: cover centers diverge", workers)
				}
				for _, c := range ca.Centers() {
					if !equalInts(ca.Cluster(c), cb.Cluster(c)) {
						t.Fatalf("workers=%d: cluster of %d diverges", workers, c)
					}
				}
			}
		}

		// The underlying orders are byte-identical too, not just the result
		// sets derived from them.
		oa := namedOrder(t, mutated, "g", 2)
		ob := namedOrder(t, fresh, "g", 2)
		if !equalInts(oa.Positions(), ob.Positions()) {
			t.Fatalf("workers=%d: orders diverge", workers)
		}
	}
}

// namedOrder fetches the cached order substrate of a registered graph.
func namedOrder(t *testing.T, e *Engine, name string, r int) *order.Order {
	t.Helper()
	e.mu.Lock()
	ent, ok := e.graphs[name]
	var gen uint64
	if ok {
		gen = ent.gen
	}
	e.mu.Unlock()
	if !ok {
		t.Fatalf("graph %q not registered", name)
	}
	o, _, err := e.orderFor(context.Background(), ent.dyn.Snapshot(), gen, r)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestMutateInvalidatesOnlyMutatedGraph asserts the invalidation scope of
// the acceptance criteria: after a small delta to one graph, a warm query
// on it rebuilds only its substrates while every other graph's cache
// entries survive and keep serving hits.
func TestMutateInvalidatesOnlyMutatedGraph(t *testing.T) {
	e := testEngine(t, Config{})
	for _, name := range []string{"a", "b", "c"} {
		if _, err := e.Register(name, gen.Grid(10, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Do(context.Background(), Request{Graph: name, Kind: KindDominatingSet, R: 1}); err != nil {
			t.Fatal(err)
		}
	}
	entriesBefore := e.cache.len()
	buildsBefore := e.Stats().SubstrateBuilds

	info, err := e.Mutate("b", Delta{Add: [][2]int{{0, 99}}})
	if err != nil {
		t.Fatal(err)
	}
	if info.InvalidatedSubstrates == 0 {
		t.Fatalf("mutation invalidated nothing: %+v", info)
	}
	if got := e.cache.len(); got != entriesBefore-info.InvalidatedSubstrates {
		t.Fatalf("cache %d -> %d entries, but %d were invalidated",
			entriesBefore, got, info.InvalidatedSubstrates)
	}

	// Untouched graphs still serve warm.
	for _, name := range []string{"a", "c"} {
		resp, err := e.Do(context.Background(), Request{Graph: name, Kind: KindDominatingSet, R: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("graph %q lost its cache entries to another graph's mutation", name)
		}
	}
	if got := e.Stats().SubstrateBuilds; got != buildsBefore {
		t.Fatalf("warm queries on untouched graphs rebuilt substrates (%d -> %d)", buildsBefore, got)
	}

	// The mutated graph rebuilds — exactly its own substrates, once.
	resp, err := e.Do(context.Background(), Request{Graph: "b", Kind: KindDominatingSet, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("query on a mutated graph must not be served stale substrates")
	}
	if got := e.Stats().SubstrateBuilds; got != buildsBefore+3 { // order + wreach + result
		t.Fatalf("rebuild after mutation built %d substrates, want 3", got-buildsBefore)
	}
	if !domset.Check(e.mustLookup(t, "b"), resp.Set, 1) {
		t.Fatal("post-mutation result does not dominate the new topology")
	}
}

func (e *Engine) mustLookup(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, ok := e.Lookup(name)
	if !ok {
		t.Fatalf("graph %q not registered", name)
	}
	return g
}

func TestMutateValidationAndNoOps(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Mutate("missing", Delta{Add: [][2]int{{0, 1}}}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v", err)
	}
	info, err := e.Register("g", gen.Grid(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []Delta{
		{Add: [][2]int{{0, 25}}},    // out of range
		{Add: [][2]int{{3, 3}}},     // self-loop
		{AddVertices: -4},           // negative
		{Remove: [][2]int{{-1, 0}}}, // negative remove
	} {
		if _, err := e.Mutate("g", delta); !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("delta %+v: want ErrInvalidRequest, got %v", delta, err)
		}
	}
	// The graph-package sentinels survive the ErrInvalidRequest wrapping.
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{3, 3}}}); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self-loop sentinel lost in the error chain: %v", err)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 999}}}); !errors.Is(err, graph.ErrVertexRange) {
		t.Fatalf("vertex-range sentinel lost in the error chain: %v", err)
	}

	// Populate the cache, then apply a delta that changes nothing: the
	// generation must hold and the cache must survive.
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	entries := e.cache.len()
	noop, err := e.Mutate("g", Delta{Add: [][2]int{{0, 1}}, Remove: [][2]int{{0, 13}}})
	if err != nil {
		t.Fatal(err)
	}
	if noop.Changed() || noop.Graph.Gen != info.Gen || noop.InvalidatedSubstrates != 0 {
		t.Fatalf("no-op delta: %+v (registered gen %d)", noop, info.Gen)
	}
	if e.cache.len() != entries {
		t.Fatal("no-op delta purged the cache")
	}
	resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
	if err != nil || !resp.CacheHit {
		t.Fatalf("query after no-op delta must stay warm: %+v %v", resp, err)
	}

	// An effective delta bumps the generation monotonically.
	eff, err := e.Mutate("g", Delta{Add: [][2]int{{0, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if eff.Graph.Gen <= info.Gen {
		t.Fatalf("generation did not advance: %d -> %d", info.Gen, eff.Graph.Gen)
	}
	st := e.Stats()
	if st.Mutations != 1 || len(st.GraphStats) != 1 || st.GraphStats[0].Gen != eff.Graph.Gen ||
		st.GraphStats[0].Mutations != 1 {
		t.Fatalf("stats after mutation: %+v", st)
	}
}

// TestMutateDuringInFlightQueries races queries against mutations: every
// query must complete without error, served against a consistent snapshot
// (old or new topology, never a torn one), and the engine must end up
// serving the final topology.
func TestMutateDuringInFlightQueries(t *testing.T) {
	e := testEngine(t, Config{Workers: 4})
	if _, err := e.Register("g", gen.Grid(16, 16)); err != nil {
		t.Fatal(err)
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
				resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
				if err != nil {
					t.Errorf("query during mutation: %v", err)
					return
				}
				if len(resp.Set) == 0 {
					t.Error("empty dominating set")
					return
				}
			}
		}()
	}
	n := 256
	for i := 0; i < 20; i++ {
		u := i * 7 % 250
		delta := Delta{Add: [][2]int{{u, u + 3}}}
		if i%4 == 0 {
			// Growing the vertex set is the sharpest probe for torn
			// (snapshot, generation) pairs: an order substrate cached for
			// the smaller topology served against the grown snapshot would
			// index out of range inside Algorithm 1.
			delta.AddVertices = 1
			delta.Add = append(delta.Add, [2]int{u, n})
			n++
		}
		if _, err := e.Mutate("g", delta); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// After the dust settles, results match a fresh build of the final
	// topology exactly.
	final := e.mustLookup(t, "g")
	fresh := testEngine(t, Config{})
	resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Do(context.Background(), Request{G: final, Kind: KindDominatingSet, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(resp.Set, want.Set) {
		t.Fatal("post-race topology diverges from fresh build")
	}
}

// TestEngineCompactionThreshold: a graph's overlay folds into a fresh CSR
// base once one delta takes it to graph.DefaultCompactionThreshold
// half-edges, and Stats surfaces the compaction.
func TestEngineCompactionThreshold(t *testing.T) {
	e := testEngine(t, Config{})
	const side = 100
	if _, err := e.Register("g", gen.Grid(side, side)); err != nil {
		t.Fatal(err)
	}
	info, err := e.Mutate("g", Delta{Add: [][2]int{{0, 2}}})
	if err != nil || info.Compacted {
		t.Fatalf("first delta: %+v %v", info, err)
	}
	// Edges v–v+2 along the grid's rows, 98 per row, are all new.
	var add [][2]int
	for v := 1; len(add) < graph.DefaultCompactionThreshold/2; v++ {
		if v%side+2 < side {
			add = append(add, [2]int{v, v + 2})
		}
	}
	info, err = e.Mutate("g", Delta{Add: add})
	if err != nil || !info.Compacted {
		t.Fatalf("threshold delta must compact: %+v %v", info, err)
	}
	st := e.Stats()
	if st.Compactions != 1 || st.GraphStats[0].Compactions != 1 || st.GraphStats[0].PendingDelta != 0 {
		t.Fatalf("compaction stats: %+v", st)
	}
	// The engine-level total is a lifetime counter: it survives removal.
	if ok, err := e.Remove("g"); !ok || err != nil {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	if got := e.Stats().Compactions; got != 1 {
		t.Fatalf("Compactions dropped to %d after graph removal", got)
	}
}
