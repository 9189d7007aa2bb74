package solver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// TestSolversPinnedDigests pins the Set, LowerBound and Wcol of every
// registered solver, solved through a fresh Local substrate, on three fixed
// instances at r = 1 and 2.  The digests were recorded with map-based balls
// and Algorithm 3 run over per-vertex L-sorted lists.
func TestSolversPinnedDigests(t *testing.T) {
	geo, _ := gen.LargestComponent(gen.RandomGeometric(600, gen.GeometricRadiusForAvgDeg(600, 6), 1))
	graphs := map[string]*graph.Graph{
		"apollonian400": gen.Apollonian(400, 1),
		"geometric600":  geo,
		"grid20x20":     gen.Grid(20, 20),
	}
	want := map[string]string{
		"dvorak/apollonian400/r1":       "2f923e9aa6086522",
		"dvorak/apollonian400/r2":       "34e7ffeda3bb39a0",
		"dvorak/geometric600/r1":        "42beda6fcd359832",
		"dvorak/geometric600/r2":        "0c3aaddbb70e2a7c",
		"dvorak/grid20x20/r1":           "8eae09e50b84c551",
		"dvorak/grid20x20/r2":           "c7ef6606a731c4c5",
		"greedy/apollonian400/r1":       "5c4e69c3a62c511d",
		"greedy/apollonian400/r2":       "2f7a260f2a7a3aae",
		"greedy/geometric600/r1":        "b4f0ea91567fd3b6",
		"greedy/geometric600/r2":        "42b54f47a065e380",
		"greedy/grid20x20/r1":           "0acd223ef342d017",
		"greedy/grid20x20/r2":           "6844c661bb273090",
		"kubsv/apollonian400/r1":        "202463c189011f73",
		"kubsv/apollonian400/r2":        "5315949d0845b820",
		"kubsv/geometric600/r1":         "d1000de11f316d85",
		"kubsv/geometric600/r2":         "7d1c9c83300cb1bf",
		"kubsv/grid20x20/r1":            "3e837ed575428575",
		"kubsv/grid20x20/r2":            "d06602f3343fc0a9",
		"order-greedy/apollonian400/r1": "918a347ef4e39080",
		"order-greedy/apollonian400/r2": "fecc729fbba5b83e",
		"order-greedy/geometric600/r1":  "2577ae4f7a209e03",
		"order-greedy/geometric600/r2":  "21d50b458455f845",
		"order-greedy/grid20x20/r1":     "818b448081acd240",
		"order-greedy/grid20x20/r2":     "37e2b46b9c61bca1",
		"paper/apollonian400/r1":        "a1e2336f54d7d19a",
		"paper/apollonian400/r2":        "2a87f5baa8202326",
		"paper/geometric600/r1":         "192c0cfc5e72f4cf",
		"paper/geometric600/r2":         "7cd17214aa6f26a1",
		"paper/grid20x20/r1":            "83200998fc733bfe",
		"paper/grid20x20/r2":            "aee883fc40daa6d9",
	}
	if names := Names(); len(names) != 5 {
		t.Fatalf("registered solvers %v: the table below pins five", names)
	}
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, gname := range []string{"apollonian400", "geometric600", "grid20x20"} {
			g := graphs[gname]
			for _, r := range []int{1, 2} {
				res, err := s.Solve(context.Background(), g, r, NewLocal(g, 0))
				if err != nil {
					t.Fatalf("%s on %s r=%d: %v", name, gname, r, err)
				}
				h := sha256.New()
				for _, v := range res.Set {
					fmt.Fprintf(h, "%d,", v)
				}
				fmt.Fprintf(h, "|%d,%d", res.LowerBound, res.Wcol)
				got := hex.EncodeToString(h.Sum(nil)[:8])
				key := fmt.Sprintf("%s/%s/r%d", name, gname, r)
				if got != want[key] {
					t.Errorf("%s: |D|=%d LB=%d wcol=%d digest %s, want %s", key, len(res.Set), res.LowerBound, res.Wcol, got, want[key])
				}
			}
		}
	}
}
