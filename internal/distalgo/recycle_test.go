package distalgo

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bedom/internal/dist"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// outputs is a deep copy of what the Theorem 9 and 10 pipelines and
// Algorithm 4 return for one graph.
type outputs struct {
	domSet, domSetOrder   []int
	connected, connDomSet []int
	witnesses             [][]order.PathTo
	stats                 [3]dist.Stats
}

// results runs RunDomSet, RunConnectedDomSet and RunWReachDist at radius r
// (horizon 2r) on g.
func results(t *testing.T, g *graph.Graph, r int, opts dist.Options) (*DomSetResult, *ConnectedResult, *WReachDistResult) {
	t.Helper()
	ds, err := RunDomSet(g, r, dist.CongestBC, opts)
	if err != nil {
		t.Fatal(err)
	}
	cds, err := RunConnectedDomSet(g, r, dist.CongestBC, opts)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := RunWReachDist(g, ds.Order, 2*r, dist.CongestBC, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cds, wr
}

// copyOutputs deep-copies the results, so that a later write into memory
// they share shows as a difference.
func copyOutputs(ds *DomSetResult, cds *ConnectedResult, wr *WReachDistResult) outputs {
	out := outputs{
		domSet:      slices.Clone(ds.Set),
		domSetOrder: ds.Order.Permutation(),
		connected:   slices.Clone(cds.Set),
		connDomSet:  slices.Clone(cds.DomSet),
		witnesses:   make([][]order.PathTo, len(wr.Witnesses)),
		stats:       [3]dist.Stats{ds.Stats, cds.Stats, wr.Stats},
	}
	for v, wits := range wr.Witnesses {
		for _, pt := range wits {
			out.witnesses[v] = append(out.witnesses[v], order.PathTo{Target: pt.Target, Path: slices.Clone(pt.Path)})
		}
	}
	return out
}

// TestResultsOutliveRecycling runs the pipelines on a graph A and keeps
// deep copies of their results; after pipelines on a larger graph B and a
// smaller graph C have taken and released the recycled memory, A's results
// must still equal the copies: no result points into memory a later
// pipeline reuses.
func TestResultsOutliveRecycling(t *testing.T) {
	a := gen.Apollonian(400, 1)
	b := largestComp(gen.RandomGeometric(900, gen.GeometricRadiusForAvgDeg(900, 6), 2))
	c := gen.Grid(10, 10)
	for _, workers := range pinnedWorkers {
		opts := dist.Options{Workers: workers}
		ds, cds, wr := results(t, a, 1, opts)
		saved := copyOutputs(ds, cds, wr)
		for _, g := range []*graph.Graph{b, c} {
			for r := 1; r <= 2; r++ {
				results(t, g, r, opts)
			}
		}
		if got := copyOutputs(ds, cds, wr); !reflect.DeepEqual(got, saved) {
			t.Fatalf("workers=%d: results on graph A changed after pipelines on graphs B and C", workers)
		}
	}
}

// TestConcurrentPipelinesMatchSerial runs four pipelines on different
// graphs and radii at once, several times each, so recycled memory passes
// between goroutines (run it under -race); every result must equal the
// result of the same pipeline run alone.
func TestConcurrentPipelinesMatchSerial(t *testing.T) {
	graphs := pinnedGraphs()
	cases := []struct {
		graph   string
		r       int
		workers int
	}{
		{"apollonian400", 1, 1},
		{"geometric600", 2, 2},
		{"grid16x16", 1, 2},
		{"apollonian400", 2, 8},
	}
	want := make([]outputs, len(cases))
	for i, tc := range cases {
		want[i] = copyOutputs(results(t, graphs[tc.graph], tc.r, dist.Options{Workers: tc.workers}))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cases))
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, opts := graphs[tc.graph], dist.Options{Workers: tc.workers}
			for rep := range 3 {
				ds, err := RunDomSet(g, tc.r, dist.CongestBC, opts)
				if err != nil {
					errs[i] = err
					return
				}
				cds, err := RunConnectedDomSet(g, tc.r, dist.CongestBC, opts)
				if err != nil {
					errs[i] = err
					return
				}
				wr, err := RunWReachDist(g, ds.Order, 2*tc.r, dist.CongestBC, opts)
				if err != nil {
					errs[i] = err
					return
				}
				if !reflect.DeepEqual(copyOutputs(ds, cds, wr), want[i]) {
					errs[i] = fmt.Errorf("%s r=%d workers=%d, repetition %d: differs from the serial result", tc.graph, tc.r, tc.workers, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// drainWReachSets empties Algorithm 4's free list.
func drainWReachSets() []wreachMem {
	var sets []wreachMem
	for {
		m, ok := wreachSets.Take(func(*wreachMem) bool { return true })
		if !ok {
			return sets
		}
		sets = append(sets, m)
	}
}

// TestFailedPipelineReleases runs a pipeline whose Algorithm 4 phase fails
// (its paths exceed a 3-word bandwidth).  It must still release its
// memory, and the next pipeline, which takes that memory with the failed
// run's tables and slabs in it, must match a pipeline run on new memory.
func TestFailedPipelineReleases(t *testing.T) {
	g := pinnedGraphs()["geometric600"]
	for _, workers := range pinnedWorkers {
		opts := dist.Options{Workers: workers}
		drainWReachSets()
		fresh, err := RunDomSet(g, 2, dist.CongestBC, opts)
		if err != nil {
			t.Fatal(err)
		}
		drainWReachSets()
		_, err = RunDomSet(g, 2, dist.CongestBC, dist.Options{Workers: workers, Bandwidth: 3})
		if !errors.Is(err, dist.ErrMessageTooLarge) {
			t.Fatalf("workers=%d: want ErrMessageTooLarge, got %v", workers, err)
		}
		sets := drainWReachSets()
		if len(sets) != 1 {
			t.Fatalf("workers=%d: the failed pipeline released %d Algorithm 4 sets, want 1", workers, len(sets))
		}
		failed := &sets[0].entries[0]
		wreachSets.Put(sets[0])
		next, err := RunDomSet(g, 2, dist.CongestBC, opts)
		if err != nil {
			t.Fatal(err)
		}
		sets = drainWReachSets()
		if len(sets) != 1 || &sets[0].entries[0] != failed {
			t.Fatalf("workers=%d: the next pipeline did not take the failed pipeline's memory", workers)
		}
		if !slices.Equal(next.Set, fresh.Set) || next.Stats != fresh.Stats {
			t.Fatalf("workers=%d: after a failed pipeline: |D| = %d, %+v; on new memory: |D| = %d, %+v",
				workers, len(next.Set), next.Stats, len(fresh.Set), fresh.Stats)
		}
	}
}

// TestRecycledMemoryIsBounded runs more concurrent pipelines on a large
// graph than the free list holds.  Afterwards the list holds at most
// GOMAXPROCS sets, each with its nodes cleared (so no table that outgrew
// its window survives) and flat arrays sized n + 2m by the graph.
func TestRecycledMemoryIsBounded(t *testing.T) {
	g := gen.Apollonian(3000, 5)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) + 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunConnectedDomSet(g, 2, dist.CongestBC, dist.Options{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	sets := drainWReachSets()
	if bound := runtime.GOMAXPROCS(0); len(sets) > bound {
		t.Fatalf("Algorithm 4's free list holds %d sets, bound %d", len(sets), bound)
	}
	for _, m := range sets {
		for v, nd := range m.nodes[:cap(m.nodes)] {
			if nd.best != nil || nd.arena != nil || nd.pos != nil {
				t.Fatalf("node %d of a released set keeps its table", v)
			}
		}
		if len(m.ints) != 2*len(m.entries) || len(m.entries) < len(m.nodes) {
			t.Fatalf("a released set holds %d entries and %d words for %d nodes", len(m.entries), len(m.ints), len(m.nodes))
		}
	}
}

// TestWReachLayering pins the layering of Algorithm 4: an entry adopted in
// round t holds a path of t edges, for every entry of every final table.
// A path received in round t has t vertices, so a round never replaces an
// entry of an earlier round, whose path is shorter; it only adds targets
// at the new length or improves an entry it adopted itself.
func TestWReachLayering(t *testing.T) {
	for name, g := range pinnedGraphs() {
		o, _ := order.FromDegeneracy(g)
		for horizon := 1; horizon <= 5; horizon++ {
			for _, workers := range pinnedWorkers {
				p := &pipeline{g: g, model: dist.CongestBC, opts: dist.Options{Workers: workers}}
				nodes, err := p.wreach(o, horizon)
				if err != nil {
					t.Fatal(err)
				}
				for v := range nodes {
					for _, e := range nodes[v].best {
						if e.adopted != e.end-e.start-1 {
							t.Fatalf("%s h=%d workers=%d: vertex %d adopted a path of %d edges in round %d",
								name, horizon, workers, v, e.end-e.start-1, e.adopted)
						}
					}
				}
				p.release()
			}
		}
	}
}
