package connect

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

func domsetFor(t *testing.T, g *graph.Graph, r int) ([]int, *order.Order) {
	t.Helper()
	o := order.ConstructDefault(g, r)
	D := domset.AlgorithmOne(g, o, r)
	if !domset.Check(g, D, r) {
		t.Fatal("setup: not a dominating set")
	}
	return D, o
}

func TestCheckConnected(t *testing.T) {
	g := gen.Path(7)
	if !CheckConnected(g, []int{2, 3, 4}, 2) {
		t.Fatal("middle segment should be a connected 2-dominating set")
	}
	if CheckConnected(g, []int{0, 6}, 3) {
		t.Fatal("disconnected set accepted")
	}
	if CheckConnected(g, []int{3}, 2) {
		t.Fatal("non-dominating set accepted")
	}
	if !CheckConnected(graph.New(0), nil, 1) {
		t.Fatal("empty graph trivially has an empty connected dominating set")
	}
	if CheckConnected(g, nil, 1) {
		t.Fatal("empty set cannot dominate a path")
	}
}

// TestCheckConnectedRejectsBadInput: an id outside [0, n) and a negative
// radius are answered false, not with a panic or an unbounded walk.
func TestCheckConnectedRejectsBadInput(t *testing.T) {
	g := gen.Grid(4, 4)
	for _, D := range [][]int{{100}, {-1}, {0, 16}} {
		if CheckConnected(g, D, 1) {
			t.Errorf("D = %v accepted on n = 16", D)
		}
	}
	if CheckConnected(gen.Grid(1, 4), []int{0, 1}, -1) {
		t.Error("r = -1 accepted")
	}
}

func TestClosureConnectsOnManyFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(40)},
		{"cycle", gen.Cycle(41)},
		{"grid", gen.Grid(9, 9)},
		{"apollonian", gen.Apollonian(100, 3)},
		{"outerplanar", gen.Outerplanar(90, 5)},
		{"ktree", gen.RandomKTree(90, 3, 7)},
		{"tree", gen.RandomTree(80, 9)},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			// Use an order built for 2r+1 as in Theorem 10.
			o := order.ConstructDefault(tc.g, 2*r+1)
			D := domset.AlgorithmOne(tc.g, o, r)
			Dp := Closure(tc.g, o, D, r)
			if !CheckConnected(tc.g, Dp, r) {
				t.Errorf("%s r=%d: closure is not a connected dominating set", tc.name, r)
			}
			if len(Dp) < len(D) {
				t.Errorf("%s r=%d: closure smaller than the input set", tc.name, r)
			}
			// Blow-up sanity: |D'| ≤ wcol_{2r+1}·(2r+2)·|D|.
			c := order.WColMeasure(tc.g, o, 2*r+1)
			if len(Dp) > c*(2*r+2)*len(D) {
				t.Errorf("%s r=%d: blow-up %d exceeds theory bound %d", tc.name, r, len(Dp), c*(2*r+2)*len(D))
			}
		}
	}
}

func mustConnected(g *graph.Graph) *graph.Graph {
	lc, _ := gen.LargestComponent(g)
	return lc
}

// TestClosurePinnedDigests pins Closure's output on fixed instances, with
// the order Theorem 10 uses (ConstructDefault at radius 2r+1).  The digests
// were recorded with a separate per-source BFS that stored every witness
// path; the parent-column walk must reproduce that output exactly.
func TestClosurePinnedDigests(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"apollonian300":  gen.Apollonian(300, 1),
		"grid20x20":      gen.Grid(20, 20),
		"outerplanar300": gen.Outerplanar(300, 1),
		"geometric2000":  mustConnected(gen.RandomGeometric(2000, gen.GeometricRadiusForAvgDeg(2000, 6), 1)),
	}
	for _, tc := range []struct {
		graph  string
		r      int
		size   int
		digest string
	}{
		{"apollonian300", 1, 60, "44cfa3a9d1b0c4ea"},
		{"apollonian300", 2, 12, "2339095a99b42f2d"},
		{"grid20x20", 1, 379, "10ca3a909acead40"},
		{"grid20x20", 2, 396, "f7c2554128071fb8"},
		{"outerplanar300", 1, 128, "336d9a0e996cc4ea"},
		{"outerplanar300", 2, 63, "0f980e3b075b22f6"},
		{"geometric2000", 1, 1561, "77c41f54f4f731d9"},
		{"geometric2000", 2, 1436, "d07031697d3adc8b"},
	} {
		g := graphs[tc.graph]
		o := order.ConstructDefault(g, 2*tc.r+1)
		Dp := Closure(g, o, domset.AlgorithmOne(g, o, tc.r), tc.r)
		if got := setDigest(Dp); len(Dp) != tc.size || got != tc.digest {
			t.Errorf("%s r=%d: closure |D'|=%d digest %s, want %d %s", tc.graph, tc.r, len(Dp), got, tc.size, tc.digest)
		}
	}
}

// TestPartitionPinnedDigests pins DPartition and LocalConnector for
// Algorithm 1's set on three fixed instances at r = 1 and 2, once with the
// vertex indices as ids and once with reversed ids.  The digests were
// recorded with a fresh n-sized distance array per bounded search.
func TestPartitionPinnedDigests(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"apollonian400": gen.Apollonian(400, 1),
		"geometric600":  mustConnected(gen.RandomGeometric(600, gen.GeometricRadiusForAvgDeg(600, 6), 1)),
		"grid20x20":     gen.Grid(20, 20),
	}
	for _, tc := range []struct {
		graph string
		r     int
		// Digests of DPartition and LocalConnector with identity ids, then
		// with reversed ids.
		want [4]string
	}{
		{"apollonian400", 1, [4]string{"b7426c87b77c313d", "089ecd6e7321d91c", "687324a66f95ade7", "e7b40091eb640f53"}},
		{"apollonian400", 2, [4]string{"45cccfe3daba66db", "a44badfbd4cf7c28", "e0162ba633d4dce9", "07a00ed6da8835ed"}},
		{"geometric600", 1, [4]string{"f39144ea0f0dd646", "47aa0380d19f8bde", "534cd10b4d9c063b", "243cf67f378e07d0"}},
		{"geometric600", 2, [4]string{"1f0b8714d7593fd1", "d6b6aeea7aa0b831", "6c5eb335d93d1895", "8e5cb5d0c1d1c26b"}},
		{"grid20x20", 1, [4]string{"3a151bf2eef6d6d0", "08de1dd72359076b", "bed31a9a360a012f", "76e2f6555e901a7d"}},
		{"grid20x20", 2, [4]string{"917d9dae346493fa", "f0ec7c394d8a75f6", "e00048b7e65c28c6", "4e4d4ff07f3a9dff"}},
	} {
		g := graphs[tc.graph]
		D := domset.AlgorithmOne(g, order.ConstructDefault(g, tc.r), tc.r)
		rev := make([]int, g.N())
		for v := range rev {
			rev[v] = g.N() - 1 - v
		}
		for i, ids := range [][]int{nil, rev} {
			for j, got := range []string{
				setDigest(DPartition(g, D, tc.r, ids)),
				setDigest(LocalConnector(g, D, tc.r, ids)),
			} {
				if want := tc.want[2*i+j]; got != want {
					t.Errorf("%s r=%d: %s (ids %d) digest %s, want %s",
						tc.graph, tc.r, [...]string{"DPartition", "LocalConnector"}[j], i, got, want)
				}
			}
		}
	}
}

// setDigest is the first 8 bytes of the SHA-256 of the set written as
// "v1,v2,...,".
func setDigest(set []int) string {
	h := sha256.New()
	for _, v := range set {
		fmt.Fprintf(h, "%d,", v)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func TestDPartitionLemma14(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(7, 7)},
		{"apollonian", gen.Apollonian(70, 5)},
		{"tree", gen.RandomTree(60, 3)},
	} {
		for _, r := range []int{1, 2} {
			D, _ := domsetFor(t, tc.g, r)
			part := DPartition(tc.g, D, r, nil)
			if err := VerifyPartition(tc.g, D, r, part); err != nil {
				t.Errorf("%s r=%d: %v", tc.name, r, err)
			}
			// Every dominator must own itself.
			for i, v := range D {
				if part[v] != i {
					t.Errorf("%s r=%d: dominator %d not in its own ball", tc.name, r, v)
				}
			}
		}
	}
}

func TestDPartitionUnreachableVertices(t *testing.T) {
	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {2, 3}})
	part := DPartition(g, []int{0}, 1, nil)
	if part[1] != 0 || part[0] != 0 {
		t.Fatal("component of the dominator should be owned by it")
	}
	if part[2] != -1 || part[4] != -1 {
		t.Fatal("unreachable vertices must be unassigned")
	}
	if err := VerifyPartition(g, []int{0}, 1, part); err == nil {
		t.Fatal("verification should fail when vertices are unassigned")
	}
}

// TestVerifyPartitionRejectsDisconnectedPart: on the path 0-1-2-3 with
// D = {0, 3}, the parts {0, 2} and {1, 3} are disconnected, so neither
// dominator reaches its whole part inside it.
func TestVerifyPartitionRejectsDisconnectedPart(t *testing.T) {
	g := gen.Path(4)
	err := VerifyPartition(g, []int{0, 3}, 3, []int{0, 1, 0, 1})
	if err == nil || !strings.Contains(err.Error(), "only 1 of its 2 members") {
		t.Fatalf("VerifyPartition = %v, want the unreached member named", err)
	}
	if err := VerifyPartition(g, []int{0, 3}, 1, []int{0, 0, 1, 1}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
}

func TestMinorFromPartitionIsConnectedAndSparse(t *testing.T) {
	g := gen.Apollonian(120, 9)
	r := 1
	D, _ := domsetFor(t, g, r)
	part := DPartition(g, D, r, nil)
	h := MinorFromPartition(g, len(D), part)
	if h.N() != len(D) {
		t.Fatalf("minor has %d vertices, want %d", h.N(), len(D))
	}
	if !h.IsConnected() {
		t.Fatal("minor of a connected graph must be connected (Lemma 15)")
	}
	// Depth-r minors of planar graphs are planar, hence density < 3.
	if d := MinorEdgeDensity(h); d >= 3 {
		t.Fatalf("planar minor density %f ≥ 3", d)
	}
}

func TestLocalConnectorLemma16(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		planar bool
	}{
		{"grid", gen.Grid(9, 9), true},
		{"apollonian", gen.Apollonian(90, 4), true},
		{"outerplanar", gen.Outerplanar(80, 8), true},
		{"ktree", gen.RandomKTree(80, 3, 2), false},
	} {
		for _, r := range []int{1, 2} {
			D, _ := domsetFor(t, tc.g, r)
			Dp := LocalConnector(tc.g, D, r, nil)
			if !CheckConnected(tc.g, Dp, r) {
				t.Errorf("%s r=%d: local connector output invalid", tc.name, r)
				continue
			}
			// Size bound of Lemma 16: |D'| ≤ 2r·|E(H(D))| + |D| and, in terms
			// of the density d of depth-r minors, ≤ (2r·d+1)·|D|.
			part := DPartition(tc.g, D, r, nil)
			h := MinorFromPartition(tc.g, len(D), part)
			if len(Dp) > 2*r*h.M()+len(D) {
				t.Errorf("%s r=%d: |D'|=%d exceeds 2r·|E(H)|+|D|=%d",
					tc.name, r, len(Dp), 2*r*h.M()+len(D))
			}
			if tc.planar {
				bound := float64((2*r*3 + 1) * len(D))
				if float64(len(Dp)) > bound {
					t.Errorf("%s r=%d: planar blow-up %d exceeds (6r+1)|D|=%.0f",
						tc.name, r, len(Dp), bound)
				}
			}
		}
	}
	if got := LocalConnector(gen.Path(5), nil, 1, nil); got != nil {
		t.Fatal("empty dominating set should return nil")
	}
}

func TestLocalConnectorSingletonDominator(t *testing.T) {
	g := gen.Star(10)
	D := []int{0}
	Dp := LocalConnector(g, D, 1, nil)
	if len(Dp) != 1 || Dp[0] != 0 {
		t.Fatalf("single dominator should stay alone, got %v", Dp)
	}
	Dc := Closure(g, order.ConstructDefault(g, 3), D, 1)
	if !CheckConnected(g, Dc, 1) {
		t.Fatal("closure of a single dominator must remain valid")
	}
}

func TestPathHelpers(t *testing.T) {
	g := gen.Cycle(8)
	ids := make([]int, 8)
	for i := range ids {
		ids[i] = i
	}
	wk := graph.NewWalker(g)
	wk.Walk(3, 8)
	p := lexMinPath(wk, 7, ids)
	if len(p) != 5 || p[0] != 7 || p[len(p)-1] != 3 {
		t.Fatalf("lex path %v", p)
	}
	// Both directions around the cycle have length 4; the lexicographically
	// smaller one goes through smaller ids.
	if want := []int{7, 0, 1, 2, 3}; !pathEqual(p, want) {
		t.Fatalf("lex path %v, want %v", p, want)
	}
	if q := CanonicalPath(wk, 3, 7, 8, ids); !pathEqual(q, []int{3, 2, 1, 0, 7}) {
		t.Fatalf("canonical path %v, want it read from the smaller id", q)
	}
	if q := CanonicalPath(wk, 3, 7, 3, ids); q != nil {
		t.Fatalf("canonical path %v beyond maxLen", q)
	}
	if !pathLess([]int{1, 2}, []int{1, 2, 3}, ids) {
		t.Fatal("shorter path must be smaller")
	}
	if !pathLess([]int{1, 2, 4}, []int{1, 3, 0}, ids) {
		t.Fatal("lexicographic comparison wrong")
	}
	if pathLess([]int{1, 2}, []int{1, 2}, ids) {
		t.Fatal("equal paths are not less")
	}
}

func pathEqual(a, b []int) bool {
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

// Property test: on random connected geometric graphs both connectors always
// produce valid connected distance-r dominating sets containing D.
func TestConnectorsQuick(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := gen.LargestComponent(gen.RandomGeometric(90, 0.18, seed))
		if g.N() < 10 {
			return true
		}
		r := 1 + int(uint(seed)%2)
		o := order.ConstructDefault(g, 2*r+1)
		D := domset.AlgorithmOne(g, o, r)
		inD := map[int]bool{}
		for _, v := range D {
			inD[v] = true
		}
		for _, Dp := range [][]int{
			Closure(g, o, D, r),
			LocalConnector(g, D, r, nil),
		} {
			if !CheckConnected(g, Dp, r) {
				return false
			}
			got := map[int]bool{}
			for _, v := range Dp {
				got[v] = true
			}
			for v := range inD {
				if !got[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
