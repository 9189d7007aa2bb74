package gen

import (
	"fmt"
	"math"
	"strings"

	"bedom/internal/graph"
)

// Family is a named, parameterised graph family used by the experiment
// harness.  Generate produces a member with approximately n vertices for a
// given seed (the exact vertex count may differ slightly, e.g. for grids).
type Family struct {
	// Name identifies the family in tables ("grid", "apollonian", ...).
	Name string
	// Class is a short human-readable description of the sparsity class the
	// family belongs to (used in the experiment tables).
	Class string
	// Planar reports whether every member of the family is planar.
	Planar bool
	// Generate returns a member with approximately n vertices.
	Generate func(n int, seed int64) *graph.Graph
}

// Families returns the registry of graph families used throughout the
// experiment suite, in the order they appear in EXPERIMENTS.md tables.
func Families() []Family {
	return []Family{
		{
			Name:   "grid",
			Class:  "planar (2D grid)",
			Planar: true,
			Generate: func(n int, seed int64) *graph.Graph {
				side := int(math.Round(math.Sqrt(float64(n))))
				if side < 1 {
					side = 1
				}
				return Grid(side, side)
			},
		},
		{
			Name:   "grid-holes",
			Class:  "planar (grid with 10% holes)",
			Planar: true,
			Generate: func(n int, seed int64) *graph.Graph {
				side := int(math.Round(math.Sqrt(float64(n))))
				if side < 1 {
					side = 1
				}
				return GridWithHoles(side, side, 0.1, seed)
			},
		},
		{
			Name:   "torus",
			Class:  "bounded degree (toroidal grid)",
			Planar: false,
			Generate: func(n int, seed int64) *graph.Graph {
				side := int(math.Round(math.Sqrt(float64(n))))
				if side < 2 {
					side = 2
				}
				return Torus(side, side)
			},
		},
		{
			Name:   "tree",
			Class:  "trees (treewidth 1)",
			Planar: true,
			Generate: func(n int, seed int64) *graph.Graph {
				return RandomTree(n, seed)
			},
		},
		{
			Name:   "outerplanar",
			Class:  "maximal outerplanar (treewidth 2)",
			Planar: true,
			Generate: func(n int, seed int64) *graph.Graph {
				return Outerplanar(n, seed)
			},
		},
		{
			Name:   "apollonian",
			Class:  "planar 3-trees (maximal planar)",
			Planar: true,
			Generate: func(n int, seed int64) *graph.Graph {
				return Apollonian(n, seed)
			},
		},
		{
			Name:   "ktree3",
			Class:  "3-trees (treewidth 3)",
			Planar: false,
			Generate: func(n int, seed int64) *graph.Graph {
				return RandomKTree(n, 3, seed)
			},
		},
		{
			Name:   "geometric",
			Class:  "bounded-density unit disk",
			Planar: false,
			Generate: func(n int, seed int64) *graph.Graph {
				return RandomGeometric(n, GeometricRadiusForAvgDeg(n, 6), seed)
			},
		},
		{
			Name:   "chunglu",
			Class:  "Chung–Lu, power-law β=2.8 capped",
			Planar: false,
			Generate: func(n int, seed int64) *graph.Graph {
				w := PowerLawWeights(n, 2.8, math.Sqrt(float64(n)), seed)
				return ChungLu(w, seed+1)
			},
		},
		{
			Name:   "config",
			Class:  "configuration model, deg ≤ 6",
			Planar: false,
			Generate: func(n int, seed int64) *graph.Graph {
				return ConfigurationModel(BoundedDegreeSequence(n, 6, seed), seed+1)
			},
		},
		{
			Name:   "erdos-renyi",
			Class:  "sparse G(n, 3/n) — comparator, not bounded expansion",
			Planar: false,
			Generate: func(n int, seed int64) *graph.Graph {
				return ErdosRenyi(n, 3/float64(n), seed)
			},
		},
	}
}

// FamilyByName returns the registered family with the given name.  The
// error for an unknown name lists the registered families.
func FamilyByName(name string) (Family, error) {
	var names []string
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
		names = append(names, f.Name)
	}
	return Family{}, fmt.Errorf("gen: unknown family %q (registered: %s)", name, strings.Join(names, ", "))
}

// PlanarFamilies returns only the planar families (used by the planar LOCAL
// experiments E7).
func PlanarFamilies() []Family {
	var out []Family
	for _, f := range Families() {
		if f.Planar {
			out = append(out, f)
		}
	}
	return out
}

// LargestComponent returns the subgraph induced by the largest connected
// component of g together with the original vertex indices.  Several
// experiments (and the connected dominating set algorithms, which require a
// connected input) use this to normalise the random families.
func LargestComponent(g *graph.Graph) (*graph.Graph, []int) {
	parts, _ := g.Components()
	best := 0
	for i, p := range parts {
		if len(p) > len(parts[best]) {
			best = i
		}
	}
	if len(parts) == 0 {
		return g, nil
	}
	return g.InducedSubgraph(parts[best])
}
