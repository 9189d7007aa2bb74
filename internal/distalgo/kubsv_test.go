package distalgo

import (
	"testing"

	"bedom/internal/dist"
	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
)

func TestKSVSequentialValid(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(9, 11)},
		{"tree", gen.RandomTree(90, 3)},
		{"apollonian", gen.Apollonian(80, 5)},
		{"path", gen.Path(17)},
		{"single", gen.Path(1)},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2, 3} {
			D := KSVSequential(tc.g, r)
			if !domset.Check(tc.g, D, r) {
				t.Errorf("%s r=%d: invalid dominating set", tc.name, r)
			}
		}
	}
}

func TestKSVDistributedMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(8, 9)},
		{"tree", gen.RandomTree(70, 3)},
		{"apollonian", gen.Apollonian(60, 5)},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			want := KSVSequential(tc.g, r)
			res, err := RunKSV(tc.g, r, dist.Local, dist.Options{})
			if err != nil {
				t.Fatalf("%s r=%d: %v", tc.name, r, err)
			}
			if len(res.Set) != len(want) {
				t.Fatalf("%s r=%d: distributed |D|=%d, sequential |D|=%d", tc.name, r, len(res.Set), len(want))
			}
			for i := range want {
				if res.Set[i] != want[i] {
					t.Fatalf("%s r=%d: sets diverge at %d: %v vs %v", tc.name, r, i, res.Set, want)
				}
			}
			if res.Stats.Rounds != 7*r {
				t.Errorf("%s r=%d: %d rounds, want exactly %d", tc.name, r, res.Stats.Rounds, 7*r)
			}
			if res.NumElected < 1 {
				t.Errorf("%s r=%d: empty elected set", tc.name, r)
			}
		}
	}
}

// TestKSVElectedScattered checks the lower-bound certificate: the elected
// vertices of phase 1 must be pairwise more than 2r apart.
func TestKSVElectedScattered(t *testing.T) {
	g := gen.Grid(10, 10)
	for _, r := range []int{1, 2} {
		res, err := RunKSV(g, r, dist.Local, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Scatteredness of the elected set is equivalent to: the r-balls of
		// elected vertices are pairwise disjoint.  Re-derive the elected set
		// sequentially (the distributed run is asserted identical elsewhere).
		var elected []int
		seen := graph.NewBitset(g.N())
		n := g.N()
		c := make([]int, n)
		wk := graph.NewWalker(g)
		for v := 0; v < n; v++ {
			c[v] = len(wk.Walk(v, r))
		}
		for v := 0; v < n; v++ {
			win := true
			for _, w := range wk.Walk(v, 2*r) {
				if c[w] > c[v] || (c[w] == c[v] && int(w) < v) {
					win = false
					break
				}
			}
			if win {
				elected = append(elected, v)
			}
		}
		if len(elected) != res.NumElected {
			t.Fatalf("r=%d: NumElected=%d, sequential election has %d", r, res.NumElected, len(elected))
		}
		for _, v := range elected {
			for _, u := range wk.Walk(v, r) {
				if seen.Get(int(u)) {
					t.Fatalf("r=%d: elected balls overlap at %d", r, u)
				}
				seen.Set(int(u))
			}
		}
	}
}
