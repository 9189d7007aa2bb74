package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	g := New(n)
	addPath(g, n)
	g.Finalize()
	return g
}

func cycleGraph(n int) *Graph {
	g := New(n)
	addPath(g, n)
	if n > 2 {
		_ = g.AddEdge(n-1, 0)
	}
	g.Finalize()
	return g
}

func addPath(g *Graph, n int) {
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
}

func completeGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			_ = g.AddEdge(i, j)
		}
	}
	g.Finalize()
	return g
}

func randomGraph(t testing.TB, n int, p float64, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := g.AddEdge(i, j); err != nil {
					t.Fatalf("AddEdge(%d,%d): %v", i, j, err)
				}
			}
		}
	}
	g.Finalize()
	return g
}

func TestNewEmptyGraph(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	g.Finalize()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err) // duplicate in reverse orientation must be a no-op
	}
	if g.M() != 1 {
		t.Fatalf("duplicate edge changed m: %d", g.M())
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 7); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if err := g.AddEdge(-1, 2); err == nil {
		t.Fatal("negative vertex accepted")
	}
	g.Finalize()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdgeFinalizedAndNot(t *testing.T) {
	g := New(6)
	edges := [][2]int{{0, 3}, {3, 5}, {1, 2}, {2, 4}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Every reader of a graph under construction panics naming Finalize.
	for name, read := range map[string]func(){
		"HasEdge":   func() { g.HasEdge(0, 3) },
		"Neighbors": func() { g.Neighbors(0) },
		"Degree":    func() { g.Degree(0) },
		"Edges":     func() { g.Edges() },
		"Validate":  func() { _ = g.Validate() },
		"Walk":      func() { NewWalker(g).Walk(0, 1) },
	} {
		if msg := panicMessage(read); !strings.Contains(msg, "Finalize") {
			t.Errorf("%s before Finalize: panic %q, want one naming Finalize", name, msg)
		}
	}
	g.Finalize()
	for _, e := range edges {
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
			t.Fatalf("missing edge %v", e)
		}
	}
	if g.HasEdge(0, 1) || g.HasEdge(5, 5) || g.HasEdge(0, 100) {
		t.Fatal("phantom edge reported")
	}
}

// panicMessage runs f and returns what it panicked with ("" if nothing).
func panicMessage(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// TestFromEdgesMatchesShuffledBuild: the CSR depends only on the edge set.
// Adding the edges in shuffled order and either orientation, with AddEdge
// or AddEdgeLazy and with repeats, packs to the same arrays as FromEdges.
func TestFromEdgesMatchesShuffledBuild(t *testing.T) {
	ref := randomGraph(t, 60, 0.1, 7)
	wantOff, wantTgt := ref.CSR()
	rng := rand.New(rand.NewSource(7))
	for _, lazy := range []bool{false, true} {
		edges := append(ref.Edges(), ref.Edges()[:10]...)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		g := New(ref.N())
		for _, e := range edges {
			u, v := e[0], e[1]
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			add := g.AddEdge
			if lazy {
				add = g.AddEdgeLazy
			}
			if err := add(u, v); err != nil {
				t.Fatal(err)
			}
		}
		g.Finalize()
		off, tgt := g.CSR()
		if !slices.Equal(off, wantOff) || !slices.Equal(tgt, wantTgt) || g.M() != ref.M() {
			t.Fatalf("lazy=%v: shuffled build packs a different CSR than FromEdges", lazy)
		}
	}
}

func TestFromEdgesRejectsBadEdges(t *testing.T) {
	if _, err := FromEdges(3, [][2]int{{0, 3}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := FromEdges(3, [][2]int{{1, 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{2, 3}, {0, 1}, {1, 3}})
	edges := g.Edges()
	want := [][2]int{{0, 1}, {1, 3}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("got %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d: got %v want %v", i, edges[i], want[i])
		}
	}
}

func TestNeighborsSortedAfterFinalize(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{0, 4}, {0, 2}, {0, 1}, {0, 3}})
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
	ints := g.NeighborsInts(0)
	if len(ints) != 4 || ints[0] != 1 || ints[3] != 4 {
		t.Fatalf("NeighborsInts: %v", ints)
	}
}

func TestDegreeStats(t *testing.T) {
	g := completeGraph(5)
	if g.MaxDegree() != 4 {
		t.Fatalf("max degree %d", g.MaxDegree())
	}
	if g.AvgDegree() != 4 {
		t.Fatalf("avg degree %f", g.AvgDegree())
	}
	empty := MustFromEdges(0, nil)
	if empty.AvgDegree() != 0 || empty.MaxDegree() != 0 {
		t.Fatal("empty graph degree stats")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycleGraph(6)
	sub, orig := g.InducedSubgraph([]int{0, 1, 2, 4, 4})
	if sub.N() != 4 {
		t.Fatalf("induced n=%d", sub.N())
	}
	// Edges 0-1 and 1-2 survive; 4 is isolated in the induced graph.
	if sub.M() != 2 {
		t.Fatalf("induced m=%d", sub.M())
	}
	if len(orig) != 4 || orig[0] != 0 || orig[3] != 4 {
		t.Fatalf("orig=%v", orig)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractPartition(t *testing.T) {
	// Path 0-1-2-3-4-5 contracted into parts {0,1}, {2,3}, {4,5} gives a path
	// on 3 vertices.
	g := pathGraph(6)
	part := []int{0, 0, 1, 1, 2, 2}
	h := g.ContractPartition(part, 3)
	if h.N() != 3 || h.M() != 2 {
		t.Fatalf("contracted: %v", h)
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 2) || h.HasEdge(0, 2) {
		t.Fatalf("contracted edges wrong: %v", h.Edges())
	}
}

func TestBFSDistancesPath(t *testing.T) {
	g := pathGraph(6)
	w := NewWalker(g)
	if got := w.Walk(0, -1); len(got) != 6 {
		t.Fatalf("unbounded walk reached %v", got)
	}
	for i := 0; i < 6; i++ {
		if w.Depth(i) != i {
			t.Fatalf("depth[%d]=%d", i, w.Depth(i))
		}
	}
	if got := w.Walk(0, 2); len(got) != 3 || w.Depth(2) != 2 || w.Depth(3) != Unreached || w.Reached(3) {
		t.Fatalf("bounded walk reached %v", got)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	w := NewWalker(g)
	w.Walk(0, -1)
	if w.Depth(2) != Unreached || w.Depth(3) != Unreached {
		t.Fatalf("depths %d %d across components", w.Depth(2), w.Depth(3))
	}
	if g.Dist(0, 3) != Unreached || g.Dist(0, 1) != 1 || g.Dist(2, 2) != 0 {
		t.Fatal("Dist should be Unreached across components")
	}
}

func TestBall(t *testing.T) {
	g := pathGraph(7)
	w := NewWalker(g)
	ball := w.Walk(3, 2)
	want := map[int32]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	if len(ball) != len(want) {
		t.Fatalf("ball %v", ball)
	}
	for _, v := range ball {
		if !want[v] {
			t.Fatalf("unexpected vertex %d in ball", v)
		}
	}
	if ball[0] != 3 {
		t.Fatalf("ball should start at the center, got %v", ball)
	}
	if got := w.Walk(3, 0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("radius-0 ball %v", got)
	}
}

// TestEccentricityRadiusDiameter reads eccentricities off the walker: the
// depth of the last vertex of an unbounded walk is the source's
// eccentricity (the cover statistics take cluster radii this way).
func TestEccentricityRadiusDiameter(t *testing.T) {
	g := pathGraph(5)
	w := NewWalker(g)
	ecc := func(v int) int {
		reached := w.Walk(v, -1)
		return w.Depth(int(reached[len(reached)-1]))
	}
	radius, diameter := g.N(), 0
	for v := 0; v < g.N(); v++ {
		radius, diameter = min(radius, ecc(v)), max(diameter, ecc(v))
	}
	if ecc(0) != 4 || ecc(2) != 2 || radius != 2 || diameter != 4 {
		t.Fatalf("ecc(0)=%d ecc(2)=%d radius=%d diameter=%d", ecc(0), ecc(2), radius, diameter)
	}
}

func TestMultiSourceDistances(t *testing.T) {
	g := pathGraph(10)
	d := g.MultiSourceDistances([]int{0, 9})
	if d[4] != 4 || d[5] != 4 || d[0] != 0 || d[9] != 0 {
		t.Fatalf("multi-source distances %v", d)
	}
	d2 := g.MultiSourceDistances(nil)
	for _, x := range d2 {
		if x != Unreached {
			t.Fatalf("no-source distances %v", d2)
		}
	}
}

func TestComponents(t *testing.T) {
	g := MustFromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	parts, comp := g.Components()
	if len(parts) != 4 {
		t.Fatalf("got %d components", len(parts))
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Fatalf("component labels %v", comp)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !cycleGraph(5).IsConnected() {
		t.Fatal("cycle reported disconnected")
	}
	if !MustFromEdges(1, nil).IsConnected() || !MustFromEdges(0, nil).IsConnected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestIsConnectedSubset(t *testing.T) {
	g := cycleGraph(6)
	if !g.IsConnectedSubset([]int{0, 1, 2}) {
		t.Fatal("path subset should be connected")
	}
	if g.IsConnectedSubset([]int{0, 3}) {
		t.Fatal("antipodal pair should not be connected")
	}
	if !g.IsConnectedSubset(nil) || !g.IsConnectedSubset([]int{4}) {
		t.Fatal("empty/singleton subsets are connected by convention")
	}
}

func TestDegeneracyOrderBasics(t *testing.T) {
	if _, k := pathGraph(10).DegeneracyOrder(); k != 1 {
		t.Fatalf("path degeneracy %d", k)
	}
	if _, k := cycleGraph(10).DegeneracyOrder(); k != 2 {
		t.Fatalf("cycle degeneracy %d", k)
	}
	if _, k := completeGraph(6).DegeneracyOrder(); k != 5 {
		t.Fatalf("K6 degeneracy %d", k)
	}
	if k := MustFromEdges(3, nil).Degeneracy(); k != 0 {
		t.Fatalf("edgeless degeneracy %d", k)
	}
	order, _ := MustFromEdges(0, nil).DegeneracyOrder()
	if order != nil {
		t.Fatal("empty graph order should be nil")
	}
}

// TestDegeneracyOrderProperty verifies the defining property of the Matula–
// Beck ordering on random graphs: when vertices are removed in order, each
// removed vertex has at most k remaining neighbors.
func TestDegeneracyOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(t, 60, 0.08, seed)
		order, k := g.DegeneracyOrder()
		if len(order) != g.N() {
			t.Fatalf("order misses vertices: %d", len(order))
		}
		pos := make([]int, g.N())
		seen := make([]bool, g.N())
		for i, v := range order {
			pos[v] = i
			if seen[v] {
				t.Fatalf("vertex %d repeated in order", v)
			}
			seen[v] = true
		}
		for i, v := range order {
			later := 0
			for _, w := range g.Neighbors(v) {
				if pos[int(w)] > i {
					later++
				}
			}
			if later > k {
				t.Fatalf("vertex %d has %d later neighbors, degeneracy %d", v, later, k)
			}
		}
	}
}

func TestAddEdgeLazyDedupAtFinalize(t *testing.T) {
	g := New(4)
	for i := 0; i < 3; i++ {
		if err := g.AddEdgeLazy(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdgeLazy(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdgeLazy(1, 2); err != nil {
		t.Fatal(err)
	}
	g.Finalize()
	if g.M() != 2 {
		t.Fatalf("M after dedup = %d, want 2", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 1) || g.HasEdge(0, 2) {
		t.Fatal("edge membership wrong after dedup")
	}
	if err := g.AddEdgeLazy(0, 0); err == nil {
		t.Fatal("lazy self-loop not rejected")
	}
	if err := g.AddEdgeLazy(0, 7); err == nil {
		t.Fatal("lazy out-of-range edge not rejected")
	}
}

func TestAddEdgeAfterFinalizeDefinalizes(t *testing.T) {
	g := pathGraph(4) // finalized CSR
	if !g.Finalized() {
		t.Fatal("pathGraph should be finalized")
	}
	// A finalized graph is read-only: both insertions fail, a duplicate
	// and a new edge alike, and the graph stays as it was.
	for _, add := range []func(u, v int) error{g.AddEdge, g.AddEdgeLazy} {
		for _, e := range [][2]int{{0, 1}, {0, 3}} {
			if err := add(e[0], e[1]); !errors.Is(err, ErrFinalized) {
				t.Fatalf("AddEdge%v on a finalized graph: %v, want ErrFinalized", e, err)
			}
		}
	}
	if !g.Finalized() || g.M() != 3 || g.HasEdge(0, 3) {
		t.Fatal("a rejected insertion changed the graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := pathGraph(4)
	// Corrupt: rewrite a CSR target to make the adjacency asymmetric.
	g.tgt[0] = 3
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric adjacency not detected")
	}
}

func TestBitsetQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 300
		b := NewBitset(n)
		ref := make(map[int]bool)
		for _, r := range raw {
			i := int(r) % n
			if ref[i] {
				b.Clear(i)
				delete(ref, i)
			} else {
				b.Set(i)
				ref[i] = true
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for _, m := range b.Members() {
			if !ref[m] {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphQuickRandomInvariants is a property-based test: random graphs
// always validate, their edge list round-trips through Edges/FromEdges, and
// BFS distances satisfy the triangle inequality along edges.
func TestGraphQuickRandomInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 40, 0.1, seed)
		if err := g.Validate(); err != nil {
			return false
		}
		g2, err := FromEdges(g.N(), g.Edges())
		if err != nil || g2.M() != g.M() {
			return false
		}
		d := g.MultiSourceDistances([]int{0})
		for _, e := range g.Edges() {
			du, dv := d[e[0]], d[e[1]]
			if du == Unreached || dv == Unreached {
				if du != dv {
					// One endpoint reachable, the other not, across an edge:
					// impossible.
					return false
				}
				continue
			}
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
