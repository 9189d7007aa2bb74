package order

import (
	"reflect"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// witnessPaths expands every witness path of x, indexed by vertex.
func witnessPaths(x *Witnesses) [][]PathTo {
	out := make([][]PathTo, x.Sets.Len())
	for w := range out {
		for j, u := range x.Sets.Of(w) {
			out[w] = append(out[w], PathTo{Target: int(u), Path: x.AppendPath(nil, w, j)})
		}
	}
	return out
}

func TestWReachWithPathsMatchesSets(t *testing.T) {
	geo := mustLargest(gen.RandomGeometric(300, gen.GeometricRadiusForAvgDeg(300, 6), 2))
	for name, g := range map[string]*graph.Graph{"apollonian": gen.Apollonian(40, 13), "geometric": geo} {
		for _, r := range []int{1, 2, 3} {
			o := ConstructDefault(g, r)
			sets := WReachSets(g, o, r)
			wits := WReachWitnesses(g, o, r, -1, 0)
			if !reflect.DeepEqual(wits.Sets, sets) {
				t.Fatalf("%s r=%d: witness targets differ from WReachSets", name, r)
			}
			if err := VerifyWitnesses(g, o, r, witnessPaths(wits)); err != nil {
				t.Fatalf("%s r=%d: %v", name, r, err)
			}
		}
	}
}

func TestWReachWithPathsSelfWitness(t *testing.T) {
	g := gen.Grid(4, 4)
	o, _ := FromDegeneracy(g)
	wits := WReachWitnesses(g, o, 2, -1, 1)
	for v := range wits.Sets.Len() {
		found := false
		for j, u := range wits.Sets.Of(v) {
			if int(u) == v {
				found = true
				if p := wits.AppendPath(nil, v, j); len(p) != 1 || p[0] != v {
					t.Fatalf("self witness of %d is %v", v, p)
				}
			}
		}
		if !found {
			t.Fatalf("vertex %d has no self witness", v)
		}
	}
}

func TestWReachWithPathsShortestWithinCluster(t *testing.T) {
	// On a path graph with the identity order, the witness from w to u < w is
	// the unique subpath, of length w-u (when ≤ r).
	g := gen.Path(8)
	o := Identity(8)
	wits := WReachWitnesses(g, o, 3, -1, 1)
	for w := 0; w < 8; w++ {
		for j, u := range wits.Sets.Of(w) {
			if got, want := len(wits.AppendPath(nil, w, j))-1, w-int(u); got != want {
				t.Fatalf("witness %d→%d has length %d want %d", w, u, got, want)
			}
		}
	}
}

func TestVerifyWitnessesCatchesBadPaths(t *testing.T) {
	g := gen.Path(5)
	o := Identity(5)
	bad := [][]PathTo{
		{{Target: 0, Path: []int{0}}},
		{{Target: 1, Path: []int{1}}, {Target: 0, Path: []int{1, 3}}}, // non-edge
	}
	if err := VerifyWitnesses(g, o, 2, bad); err == nil {
		t.Fatal("expected error for non-edge path")
	}
	bad2 := [][]PathTo{{{Target: 0, Path: []int{1, 0}}}} // wrong start vertex
	if err := VerifyWitnesses(g, o, 2, bad2); err == nil {
		t.Fatal("expected error for wrong endpoints")
	}
	bad3 := [][]PathTo{{{Target: 0, Path: []int{0, 1, 2, 3}}}} // wrong target end
	if err := VerifyWitnesses(g, o, 3, bad3); err == nil {
		t.Fatal("expected error for wrong target")
	}
}
