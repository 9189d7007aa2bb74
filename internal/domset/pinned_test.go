package domset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// digest is the first 8 bytes of the SHA-256 of everything write put in.
func digest(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func writeInts(h hash.Hash, xs []int) {
	h.Write([]byte{'['})
	for _, x := range xs {
		fmt.Fprintf(h, "%d,", x)
	}
	h.Write([]byte{']'})
}

func pinnedGraphs() map[string]*graph.Graph {
	geo, _ := gen.LargestComponent(gen.RandomGeometric(600, gen.GeometricRadiusForAvgDeg(600, 6), 1))
	return map[string]*graph.Graph{
		"apollonian400": gen.Apollonian(400, 1),
		"geometric600":  geo,
		"grid20x20":     gen.Grid(20, 20),
	}
}

// TestSearchPinnedDigests pins every output of this package that runs a
// bounded search, on three fixed instances at r = 1 and 2, with the order
// ConstructDefault builds for r: Algorithm 1's set, the scattered lower
// bound with that set and with nil as candidates, Prune of that set, and
// the Greedy and OrderGreedy baselines.  The digests were recorded with
// map-based balls and Algorithm 3 run over per-vertex L-sorted lists.
func TestSearchPinnedDigests(t *testing.T) {
	graphs := pinnedGraphs()
	for _, tc := range []struct {
		graph     string
		r         int
		lb, lbAll int
		// Digests of AlgorithmOne, Prune, Greedy and OrderGreedy.
		sets [4]string
	}{
		{"apollonian400", 1, 7, 24, [4]string{"1f3830b88afd57ef", "4205524ba54b0592", "8c1620f5ca44c3b3", "d5b4f132fe7a78fd"}},
		{"apollonian400", 2, 1, 2, [4]string{"76d53b786d888718", "d67e224fc87aad67", "fe870cb969d78ab0", "33914ada1f2ca999"}},
		{"geometric600", 1, 60, 81, [4]string{"cb5e962efd84ea45", "9f5c3e68cc912792", "a9be35ffaaa35ca9", "e3e52877e3d31702"}},
		{"geometric600", 2, 23, 36, [4]string{"d9fee557fa3a3a4f", "9b93c87b2c4d93f0", "494ba58a88e873f8", "4f55ad9888961115"}},
		{"grid20x20", 1, 61, 70, [4]string{"b2b72ce3017e298f", "6c422fcb0c20af64", "8353cb4ab96505e4", "d097d176d8fbb3b7"}},
		{"grid20x20", 2, 23, 32, [4]string{"a77e2f0edd15879c", "e14b447d961dfb2b", "dbc74d85a69de505", "784c878d011fb844"}},
	} {
		g := graphs[tc.graph]
		o := order.ConstructDefault(g, tc.r)
		D := AlgorithmOne(g, o, tc.r)
		if lb, lbAll := ScatteredLowerBound(g, tc.r, D), ScatteredLowerBound(g, tc.r, nil); lb != tc.lb || lbAll != tc.lbAll {
			t.Errorf("%s r=%d: ScatteredLowerBound %d (candidates D), %d (nil), want %d, %d", tc.graph, tc.r, lb, lbAll, tc.lb, tc.lbAll)
		}
		for i, set := range [][]int{D, Prune(g, D, tc.r, nil), Greedy(g, tc.r), OrderGreedy(g, o.Positions(), tc.r)} {
			if got := digest(func(h hash.Hash) { writeInts(h, set) }); got != tc.sets[i] {
				t.Errorf("%s r=%d: %s digest %s, want %s (size %d)",
					tc.graph, tc.r, [...]string{"AlgorithmOne", "Prune", "Greedy", "OrderGreedy"}[i], got, tc.sets[i], len(set))
			}
		}
	}
}

// TestExactSetPinned pins the optimal set the branch and bound returns on
// small grids (among several optima, the one its branching order finds
// first).
func TestExactSetPinned(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, r int
		digest        string
	}{
		{4, 5, 1, "9d565de280e7a1f8"},
		{5, 5, 1, "467950b5b9f55226"},
		{5, 5, 2, "3c0b243fd7dd3c31"},
		{6, 6, 2, "9ffb1ce382b123e2"},
	} {
		D := ExactSet(gen.Grid(tc.rows, tc.cols), tc.r, 0)
		if got := digest(func(h hash.Hash) { writeInts(h, D) }); got != tc.digest {
			t.Errorf("grid %dx%d r=%d: ExactSet %v digest %s, want %s", tc.rows, tc.cols, tc.r, D, got, tc.digest)
		}
	}
}
