package bedom

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bedom/internal/gen"
)

func TestPublicGraphConstruction(t *testing.T) {
	g := NewGraph(4)
	if g.N() != 4 {
		t.Fatal("NewGraph")
	}
	fe, err := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil || fe.M() != 2 {
		t.Fatalf("FromEdges: %v %v", fe, err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, fe); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil || back.M() != 2 {
		t.Fatalf("ReadGraph: %v %v", back, err)
	}
	if Grid(4, 4).N() != 16 {
		t.Fatal("Grid")
	}
}

func TestDominatingSetAPI(t *testing.T) {
	g := Grid(12, 12)
	for _, r := range []int{1, 2} {
		res, err := DominatingSet(g, r)
		if err != nil {
			t.Fatal(err)
		}
		if !IsDominatingSet(g, res.Set, r) {
			t.Fatalf("r=%d: invalid dominating set", r)
		}
		if res.LowerBound == 0 || res.Ratio() < 1 {
			t.Fatalf("r=%d: suspicious quality report %+v", r, res)
		}
		if res.Wcol2R < 1 {
			t.Fatalf("r=%d: wcol missing", r)
		}
	}
	if _, err := DominatingSet(g, 0); err == nil {
		t.Fatal("radius 0 must be rejected")
	}
}

func TestConnectedDominatingSetAPI(t *testing.T) {
	g := gen.Apollonian(80, 3)
	res, err := ConnectedDominatingSet(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnectedDominatingSet(g, res.Set, 1) {
		t.Fatal("invalid connected dominating set")
	}
	if _, err := ConnectedDominatingSet(g, 0); err == nil {
		t.Fatal("radius 0 must be rejected")
	}
	disc, _ := FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if _, err := ConnectedDominatingSet(disc, 1); err == nil {
		t.Fatal("disconnected input must be rejected")
	} else if !strings.HasPrefix(err.Error(), "bedom:") {
		t.Fatalf("facade error leaks internals: %v", err)
	}
}

func TestGreedyAndCoverAPI(t *testing.T) {
	g := Grid(10, 10)
	D := GreedyDominatingSet(g, 1)
	if !IsDominatingSet(g, D, 1) {
		t.Fatal("greedy invalid")
	}
	cov, err := NeighborhoodCover(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cov.MaxRadius > 4 || cov.Degree < 1 || len(cov.Clusters) == 0 {
		t.Fatalf("cover stats %+v", cov)
	}
	if _, err := NeighborhoodCover(g, 0); err == nil {
		t.Fatal("radius 0 must be rejected")
	}
}

func TestOrderAPI(t *testing.T) {
	g := gen.Outerplanar(60, 5)
	o := BuildOrder(g, 2)
	if o.N() != g.N() {
		t.Fatal("order size mismatch")
	}
	if WeakColouringNumber(g, o, 4) < 1 {
		t.Fatal("wcol measure")
	}
}

func TestDistributedAPI(t *testing.T) {
	g := Grid(9, 9)
	res, err := DistributedDominatingSet(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !IsDominatingSet(g, res.Set, 1) || res.Rounds == 0 || res.Messages == 0 {
		t.Fatalf("distributed result %+v", res)
	}
	cres, err := DistributedConnectedDominatingSet(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnectedDominatingSet(g, cres.Set, 1) {
		t.Fatal("distributed connected result invalid")
	}
	if len(cres.DomSet) > len(cres.Set) {
		t.Fatal("connected set smaller than its dominating set")
	}
	// Explicit options path.
	res2, err := DistributedDominatingSet(g, 1, DistributedOptions{Model: CONGESTBC, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Set) != len(res.Set) {
		t.Fatal("options changed the deterministic result")
	}
	// Refined-order pipeline: still valid, usually not larger.
	res3, err := DistributedDominatingSet(g, 1, DistributedOptions{Model: CONGESTBC, RefinedOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !IsDominatingSet(g, res3.Set, 1) {
		t.Fatal("refined-order distributed result invalid")
	}
	if res3.Rounds <= res.Rounds {
		t.Log("refined pipeline unexpectedly used fewer rounds (not an error)")
	}
}

func TestLocalConnectAndPlanarPipelineAPI(t *testing.T) {
	g := Grid(10, 10)
	seq, err := DominatingSet(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := LocalConnect(g, seq.Set, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnectedDominatingSet(g, lc.Set, 2) {
		t.Fatal("LocalConnect output invalid")
	}
	if lc.Rounds > 3*2+2 {
		t.Fatalf("LocalConnect used %d rounds", lc.Rounds)
	}
	pp, err := PlanarLocalConnectedDominatingSet(g)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnectedDominatingSet(g, pp.Set, 1) {
		t.Fatal("planar pipeline output invalid")
	}
	if float64(len(pp.Set)) > 6*float64(len(pp.DomSet))+1 {
		t.Fatalf("planar connection factor too large: %d vs %d", len(pp.Set), len(pp.DomSet))
	}
	if _, err := LocalConnect(g, seq.Set, 0); err == nil {
		t.Fatal("radius 0 must be rejected")
	}
}

// twoGrids is the disjoint union of two 4×4 grids.
func twoGrids(t *testing.T) *Graph {
	t.Helper()
	var edges [][2]int
	for _, e := range Grid(4, 4).Edges() {
		edges = append(edges, e, [2]int{e[0] + 16, e[1] + 16})
	}
	g, err := FromEdges(32, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// disconnectedError is the error ConnectedDominatingSet returns on g, which
// must be disconnected.
func disconnectedError(t *testing.T, g *Graph) error {
	t.Helper()
	_, err := ConnectedDominatingSet(g, 1)
	if err == nil {
		t.Fatal("ConnectedDominatingSet accepted a disconnected graph")
	}
	return err
}

// The LOCAL connector cannot connect a disconnected graph, so both LOCAL
// pipelines refuse one with ConnectedDominatingSet's error instead of
// returning a set that is not connected.
func TestLocalConnectRejectsDisconnectedGraph(t *testing.T) {
	g := twoGrids(t)
	want := disconnectedError(t, g)
	seq, err := DominatingSet(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := LocalConnect(g, seq.Set, 1); err == nil || err.Error() != want.Error() {
		t.Fatalf("LocalConnect: %d vertices, error %v, want %q", len(res.Set), err, want)
	}
}

func TestPlanarLocalRejectsDisconnectedGraph(t *testing.T) {
	g := twoGrids(t)
	want := disconnectedError(t, g)
	if res, err := PlanarLocalConnectedDominatingSet(g); err == nil || err.Error() != want.Error() {
		t.Fatalf("PlanarLocalConnectedDominatingSet: %d vertices, error %v, want %q", len(res.Set), err, want)
	}
}

// TestLocalConnectRejectsNonDominatingSet: the connector's input must be a
// distance-r dominating set.
func TestLocalConnectRejectsNonDominatingSet(t *testing.T) {
	if res, err := LocalConnect(Grid(6, 6), []int{0}, 1); err == nil {
		t.Fatalf("LocalConnect accepted a set that does not dominate: %d vertices", len(res.Set))
	} else if !strings.Contains(err.Error(), "dominating set") {
		t.Fatalf("LocalConnect error %q does not name the violated precondition", err)
	}
}

// TestFacadeCachingIsTransparent asserts that routing the facade through the
// default engine does not change results: repeated calls (served from the
// substrate cache) are identical to the first (cold) call.
func TestFacadeCachingIsTransparent(t *testing.T) {
	g := Grid(14, 14)
	cold, err := DominatingSet(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		warm, err := DominatingSet(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(warm.Set) != len(cold.Set) || warm.LowerBound != cold.LowerBound || warm.Wcol2R != cold.Wcol2R {
			t.Fatalf("warm call diverged: %+v vs %+v", warm, cold)
		}
		for j := range warm.Set {
			if warm.Set[j] != cold.Set[j] {
				t.Fatal("warm set differs element-wise")
			}
		}
	}
	ccold, err := NeighborhoodCover(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The returned clusters are a private copy: mutating them must not poison
	// the cache for later calls.
	for center := range ccold.Clusters {
		ccold.Clusters[center] = nil
	}
	cwarm, err := NeighborhoodCover(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cwarm.Clusters) != len(ccold.Clusters) || cwarm.Degree != ccold.Degree {
		t.Fatalf("cover warm call diverged")
	}
	for _, members := range cwarm.Clusters {
		if len(members) == 0 {
			t.Fatal("cache was poisoned by caller mutation")
		}
	}
}

func TestModelNamesExposed(t *testing.T) {
	if LOCAL.String() != "LOCAL" || CONGESTBC.String() != "CONGEST_BC" {
		t.Fatal("model constants not wired correctly")
	}
	if DefaultDistributedOptions().Model != CONGESTBC {
		t.Fatal("default model should be CONGEST_BC")
	}
}

func TestSolverSelectionAPI(t *testing.T) {
	g := Grid(14, 14)
	names := Solvers()
	if len(names) < 5 {
		t.Fatalf("expected at least 5 registered solvers, got %v", names)
	}
	sizes := make(map[string]int)
	for _, name := range names {
		res, err := DominatingSetWith(g, 2, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Solver != name {
			t.Fatalf("result echoes solver %q, want %q", res.Solver, name)
		}
		if !IsDominatingSet(g, res.Set, 2) {
			t.Fatalf("%s: invalid dominating set", name)
		}
		if res.LowerBound < 1 || res.LowerBound > len(res.Set) {
			t.Fatalf("%s: lower bound %d out of range for |D|=%d", name, res.LowerBound, len(res.Set))
		}
		sizes[name] = len(res.Set)
	}
	// The empty name and DominatingSet both alias the paper strategy.
	def, err := DominatingSetWith(g, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DominatingSet(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if def.Solver != "paper" || plain.Solver != "paper" || len(def.Set) != sizes["paper"] || len(plain.Set) != sizes["paper"] {
		t.Fatalf("default path does not alias the paper solver: %q/%q", def.Solver, plain.Solver)
	}
	if _, err := DominatingSetWith(g, 2, "no-such-solver"); err == nil {
		t.Fatal("unknown solver must be rejected")
	} else if !strings.Contains(err.Error(), "paper") {
		t.Fatalf("unknown-solver error must list the registry: %v", err)
	}
}

func TestDistributedSolverSelectionAPI(t *testing.T) {
	g := Grid(9, 9)
	res, err := DistributedDominatingSet(g, 2, DistributedOptions{Model: CONGESTBC, Solver: "kubsv"})
	if err != nil {
		t.Fatal(err)
	}
	if !IsDominatingSet(g, res.Set, 2) {
		t.Fatal("kubsv distributed result invalid")
	}
	if res.Rounds != 14 {
		t.Fatalf("kubsv must run exactly 7r rounds, got %d", res.Rounds)
	}
	// The sequential and distributed kubsv computations agree, and the
	// facade's sequential entry point serves the same set.
	seq, err := DominatingSetWith(g, 2, "kubsv")
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Set) != len(res.Set) {
		t.Fatalf("kubsv sequential/distributed mismatch: %d vs %d", len(seq.Set), len(res.Set))
	}
	if _, err := DistributedDominatingSet(g, 2, DistributedOptions{Model: CONGESTBC, Solver: "greedy"}); err == nil {
		t.Fatal("non-distributed solver must be rejected on the distributed path")
	}
}

// TestConstructionOrderDoesNotMatter builds each instance twice: with
// FromEdges, and with NewGraph and AddEdge in a shuffled order and random
// orientation.  Queried before Finalize, the second graph is refused by
// every error-returning function.  Once finalized it packs the same CSR as
// the first, and every kind and solver answers the same on both.
func TestConstructionOrderDoesNotMatter(t *testing.T) {
	if testing.Short() {
		t.Skip("30 instances through every kind in -short mode")
	}
	families := map[string]func(seed int64) *Graph{
		"apollonian300": func(seed int64) *Graph { return gen.Apollonian(300, seed) },
		"geometric400": func(seed int64) *Graph {
			lc, _ := gen.LargestComponent(gen.RandomGeometric(400, gen.GeometricRadiusForAvgDeg(400, 6), seed))
			return lc
		},
		"grid15x15": func(int64) *Graph { return Grid(15, 15) },
	}
	for name, family := range families {
		for seed := int64(1); seed <= 5; seed++ {
			base := family(seed)
			edges := base.Edges()
			ref, err := FromEdges(base.N(), edges)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			g := NewGraph(ref.N())
			for _, e := range edges {
				if rng.Intn(2) == 0 {
					e[0], e[1] = e[1], e[0]
				}
				if err := g.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			for query, err := range queryErrors(g) {
				if err == nil {
					t.Errorf("%s seed %d: %s before Finalize returned no error", name, seed, query)
				}
			}
			g.Finalize()
			refOff, refTgt := ref.CSR()
			off, tgt := g.CSR()
			if !slices.Equal(off, refOff) || !slices.Equal(tgt, refTgt) {
				t.Fatalf("%s seed %d: shuffled build packs a different CSR than FromEdges", name, seed)
			}
			for _, r := range []int{1, 2} {
				want, got := answers(ref, r), answers(g, r)
				for query, a := range want {
					if !reflect.DeepEqual(a, got[query]) {
						t.Errorf("%s seed %d r=%d: %s differs between FromEdges and the shuffled build", name, seed, r, query)
					}
				}
			}
		}
	}
}

// queryErrors calls every error-returning facade function that reads g.
func queryErrors(g *Graph) map[string]error {
	errs := map[string]error{}
	for _, s := range Solvers() {
		_, errs["DominatingSetWith "+s] = DominatingSetWith(g, 1, s)
	}
	_, errs["DominatingSet"] = DominatingSet(g, 1)
	_, errs["ConnectedDominatingSet"] = ConnectedDominatingSet(g, 1)
	_, errs["NeighborhoodCover"] = NeighborhoodCover(g, 1)
	_, errs["DistributedDominatingSet"] = DistributedDominatingSet(g, 1)
	_, errs["DistributedConnectedDominatingSet"] = DistributedConnectedDominatingSet(g, 1)
	_, errs["LocalConnect"] = LocalConnect(g, []int{0}, 1)
	_, errs["PlanarLocalConnectedDominatingSet"] = PlanarLocalConnectedDominatingSet(g)
	errs["WriteGraph"] = WriteGraph(io.Discard, g)
	return errs
}

// answers runs every facade kind and solver on g at radius r.
func answers(g *Graph, r int) map[string]any {
	out := map[string]any{}
	pair := func(v any, err error) any { return [2]any{v, err} }
	for _, s := range Solvers() {
		out["DominatingSetWith "+s] = pair(DominatingSetWith(g, r, s))
	}
	ds, err := DominatingSet(g, r)
	out["DominatingSet"] = [2]any{ds, err}
	out["ConnectedDominatingSet"] = pair(ConnectedDominatingSet(g, r))
	out["NeighborhoodCover"] = pair(NeighborhoodCover(g, r))
	out["DistributedDominatingSet"] = pair(DistributedDominatingSet(g, r))
	out["DistributedConnectedDominatingSet"] = pair(DistributedConnectedDominatingSet(g, r))
	out["LocalConnect"] = pair(LocalConnect(g, ds.Set, r))
	out["PlanarLocalConnectedDominatingSet"] = pair(PlanarLocalConnectedDominatingSet(g))
	return out
}
