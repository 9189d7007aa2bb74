package exp

import (
	"fmt"
	"math"

	"bedom/internal/connect"
	"bedom/internal/cover"
	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// qualityFamilies returns the families used for the solution-quality tables
// (everything in the registry except the Erdős–Rényi comparator, unless the
// config narrows the set).
func qualityFamilies(cfg Config) []gen.Family {
	var out []gen.Family
	for _, f := range gen.Families() {
		if len(cfg.Families) > 0 {
			found := false
			for _, name := range cfg.Families {
				if f.Name == name {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		} else if f.Name == "erdos-renyi" {
			continue
		}
		out = append(out, f)
	}
	return out
}

// instance generates a connected instance of approximately n vertices.
func instance(f gen.Family, n int, seed int64) *graph.Graph {
	g := f.Generate(n, seed)
	lc, _ := gen.LargestComponent(g)
	return lc
}

// E1SequentialApproximation validates Theorem 5: the paper's sequential
// algorithm achieves small constant approximation ratios, far below the
// greedy ln(n) envelope, across bounded expansion families.  On small
// instances the ratio is measured against the exact optimum.  The time of
// each substrate stage is a bench/ row: order.construct_ms.*,
// order.wreach_ms.* and cover.build_ms.
func E1SequentialApproximation(cfg Config) *Table {
	t := &Table{
		ID:    "E1",
		Title: "Sequential distance-r dominating sets (Theorem 5): sizes and ratios vs lower bounds / exact optima",
		Header: []string{"family", "r", "n", "wcol_2r", "|D| paper", "|D| pruned", "|D| greedy", "|D| order-greedy",
			"LB", "ratio paper", "ratio pruned", "ratio greedy", "exact?"},
	}
	for _, f := range qualityFamilies(cfg) {
		for _, r := range cfg.Radii {
			g := instance(f, cfg.N, cfg.Seed)
			o := order.ConstructDefault(g, r)
			D := domset.AlgorithmOne(g, o, r)
			pruned := domset.Prune(g, D, r, nil)
			greedy := domset.Greedy(g, r)
			og := domset.OrderGreedy(g, o.Positions(), r)
			lb, exact := domset.BestLowerBound(g, r, D, cfg.SmallN, 0)
			wc := order.WColMeasure(g, o, 2*r)
			t.AddRow(f.Name, r, g.N(), wc, len(D), len(pruned), len(greedy), len(og), lb,
				ratio(len(D), lb), ratio(len(pruned), lb), ratio(len(greedy), lb), exact)
		}
	}
	// Small instances with exact optima for true ratios.
	for _, f := range qualityFamilies(cfg) {
		for _, r := range cfg.Radii {
			g := instance(f, cfg.SmallN, cfg.Seed+100)
			if g.N() > 40 {
				continue
			}
			o := order.ConstructDefault(g, r)
			D := domset.AlgorithmOne(g, o, r)
			pruned := domset.Prune(g, D, r, nil)
			greedy := domset.Greedy(g, r)
			opt, ok := domset.Exact(g, r, 0)
			if !ok {
				continue
			}
			t.AddRow(f.Name+"(small)", r, g.N(), order.WColMeasure(g, o, 2*r),
				len(D), len(pruned), len(greedy), len(domset.OrderGreedy(g, o.Positions(), r)),
				opt, ratio(len(D), opt), ratio(len(pruned), opt), ratio(len(greedy), opt), true)
		}
	}
	t.Notes = append(t.Notes,
		"Theorem 5 guarantees |D| ≤ wcol_2r · OPT; LB is a 2r-scattered-set bound unless exact=true.")
	return t
}

// E2NeighborhoodCovers validates Theorem 4 / Theorem 8: the covers derived
// from the constructed orders have radius ≤ 2r and constant degree.
func E2NeighborhoodCovers(cfg Config) *Table {
	t := &Table{
		ID:    "E2",
		Title: "Sparse r-neighborhood covers (Theorem 4/8): radius ≤ 2r and constant degree",
		Header: []string{"family", "r", "n", "degree (=wcol_2r)", "avg degree", "max radius", "2r",
			"max cluster", "avg cluster", "valid"},
	}
	for _, f := range qualityFamilies(cfg) {
		for _, r := range cfg.Radii {
			g := instance(f, cfg.N/2, cfg.Seed+1)
			o := order.ConstructDefault(g, r)
			c := cover.Build(g, o, r)
			st := c.ComputeStats(g)
			valid := c.Verify(g) == nil
			t.AddRow(f.Name, r, g.N(), st.Degree, st.AvgDegree, st.MaxRadius, 2*r,
				st.MaxClusterSize, st.AvgClusterSize, valid)
		}
	}
	return t
}

// E3DistributedRounds validates the round-complexity shape of the CONGEST_BC
// pipeline (Theorems 3 & 9): for fixed r the number of rounds grows
// logarithmically in n (well inside the paper's O(r² log n) bound) and the
// maximum message size in words does not grow with n.
func E3DistributedRounds(cfg Config) *Table {
	t := &Table{
		ID:    "E3",
		Title: "CONGEST_BC round complexity (Theorems 3 & 9): rounds vs n and message sizes",
		Header: []string{"family", "r", "n", "rounds", "rounds/log2(n)", "max msg words",
			"messages", "|D|"},
	}
	fams := []string{"grid", "geometric", "chunglu"}
	if len(cfg.Families) > 0 {
		fams = cfg.Families
	}
	for _, name := range fams {
		f, err := gen.FamilyByName(name)
		if err != nil {
			continue
		}
		for _, r := range cfg.Radii {
			if r > 2 && len(cfg.ScalingSizes) > 3 {
				// Keep the largest sweep affordable for r=3.
				continue
			}
			for _, n := range cfg.ScalingSizes {
				g := instance(f, n, cfg.Seed+2)
				res, err := distalgo.RunDomSet(g, r, dist.CongestBC, dist.Options{})
				if err != nil {
					t.Notes = append(t.Notes, fmt.Sprintf("%s n=%d r=%d failed: %v", name, n, r, err))
					continue
				}
				lg := math.Log2(float64(g.N()))
				t.AddRow(name, r, g.N(), res.Stats.Rounds, float64(res.Stats.Rounds)/lg,
					res.Stats.MaxMessageWords, res.Stats.Messages, len(res.Set))
			}
		}
	}
	t.Notes = append(t.Notes,
		"The order is computed with the distributed H-partition (Theorem 3 substitute, see DESIGN.md), so rounds grow like O(log n + r); this sits inside the paper's O(r² log n) bound.")
	return t
}

// E4DistributedQuality validates Theorem 9's solution quality: the
// distributed pipeline returns exactly the sequential Algorithm 1 result for
// the same order, and stays within a constant factor of the lower bound even
// with the H-partition order.
func E4DistributedQuality(cfg Config) *Table {
	t := &Table{
		ID:    "E4",
		Title: "Distributed vs sequential solution quality (Theorem 9)",
		Header: []string{"family", "r", "n", "|D| distributed", "|D| sequential(same order)", "equal",
			"|D| seq(aug order)", "LB", "ratio distributed"},
	}
	for _, f := range qualityFamilies(cfg) {
		for _, r := range cfg.Radii {
			g := instance(f, cfg.N/2, cfg.Seed+3)
			hp, err := distalgo.RunHPartition(g, dist.CongestBC, g.Degeneracy(), 1, dist.Options{})
			if err != nil {
				continue
			}
			res, err := distalgo.RunDomSetWithOrder(g, hp.Order, r, dist.CongestBC, dist.Options{})
			if err != nil {
				continue
			}
			seqSame := domset.FromOrder(g, hp.Order, r)
			seqAug := domset.AlgorithmOne(g, order.ConstructDefault(g, r), r)
			lb := domset.ScatteredLowerBound(g, r, res.Set)
			t.AddRow(f.Name, r, g.N(), len(res.Set), len(seqSame), equalSets(res.Set, seqSame),
				len(seqAug), lb, ratio(len(res.Set), lb))
		}
	}
	return t
}

// E5ConnectedCongest validates Theorem 10: the CONGEST_BC algorithm returns
// a connected distance-r dominating set whose size stays within the
// c'(2r+1) blow-up bound.
func E5ConnectedCongest(cfg Config) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Connected distance-r dominating sets in CONGEST_BC (Theorem 10)",
		Header: []string{"family", "r", "n", "|D|", "|D'|", "blow-up", "bound c'(2r+1)",
			"connected+dominating", "rounds", "max msg words"},
	}
	for _, f := range qualityFamilies(cfg) {
		for _, r := range cfg.Radii {
			if r > 2 {
				continue
			}
			g := instance(f, cfg.N/2, cfg.Seed+4)
			o := order.ConstructDefault(g, 2*r+1)
			res, err := distalgo.RunConnectedDomSetWithOrder(g, o, r, dist.CongestBC, dist.Options{})
			if err != nil {
				continue
			}
			c := order.WColMeasure(g, o, 2*r+1)
			valid := connect.CheckConnected(g, res.Set, r)
			t.AddRow(f.Name, r, g.N(), len(res.DomSet), len(res.Set),
				ratio(len(res.Set), len(res.DomSet)), c*(2*r+1), valid,
				res.Stats.Rounds, res.Stats.MaxMessageWords)
		}
	}
	return t
}

// E6LocalConnector validates Lemma 16: the 3r+1-round LOCAL connector turns
// any distance-r dominating set into a connected one of size at most
// 2r·d·|D|, where d is the measured edge density of the contracted depth-r
// minor H(D).
func E6LocalConnector(cfg Config) *Table {
	t := &Table{
		ID:    "E6",
		Title: "LOCAL-model connector (Lemma 16): blow-up vs the 2r·d bound in 3r+1 rounds",
		Header: []string{"family", "r", "n", "|D|", "|D'|", "blow-up", "minor density d", "bound 2rd+1",
			"rounds", "3r+1", "valid"},
	}
	for _, f := range qualityFamilies(cfg) {
		for _, r := range cfg.Radii {
			g := instance(f, cfg.N/2, cfg.Seed+5)
			o := order.ConstructDefault(g, r)
			D := domset.AlgorithmOne(g, o, r)
			res, err := distalgo.RunLocalConnector(g, D, r, dist.Options{})
			if err != nil {
				continue
			}
			part := connect.DPartition(g, D, r, nil)
			h := connect.MinorFromPartition(g, len(D), part)
			d := connect.MinorEdgeDensity(h)
			valid := connect.CheckConnected(g, res.Set, r)
			t.AddRow(f.Name, r, g.N(), len(D), len(res.Set), ratio(len(res.Set), len(D)),
				d, 2*float64(r)*d+1, res.Stats.Rounds, 3*r+1, valid)
		}
	}
	return t
}

// E7PlanarLocalCDS validates Theorem 17 instantiated with the Lenzen et al.
// planar MDS algorithm: a constant-round LOCAL algorithm for connected
// dominating sets on planar graphs whose output is at most ~6 times the
// Lenzen dominating set (r = 1, planar minor density < 3).
func E7PlanarLocalCDS(cfg Config) *Table {
	t := &Table{
		ID:    "E7",
		Title: "Planar constant-round connected MDS (Theorem 17 + Lenzen et al. [36])",
		Header: []string{"family", "n", "|A|", "|Lenzen D|", "|connected D'|", "factor |D'|/|D|",
			"bound 6", "LB", "rounds total", "valid"},
	}
	fams := gen.PlanarFamilies()
	if len(cfg.Families) > 0 {
		fams = nil
		for _, name := range cfg.Families {
			if f, err := gen.FamilyByName(name); err == nil && f.Planar {
				fams = append(fams, f)
			}
		}
	}
	for _, f := range fams {
		g := instance(f, cfg.N/2, cfg.Seed+6)
		mds, err := distalgo.RunLenzen(g, dist.Options{})
		if err != nil {
			continue
		}
		cds, err := distalgo.RunLocalConnector(g, mds.Set, 1, dist.Options{})
		if err != nil {
			continue
		}
		lb := domset.ScatteredLowerBound(g, 1, mds.Set)
		valid := connect.CheckConnected(g, cds.Set, 1)
		t.AddRow(f.Name, g.N(), mds.SizeA, len(mds.Set), len(cds.Set),
			ratio(len(cds.Set), len(mds.Set)), 6, lb,
			mds.Stats.Rounds+cds.Stats.Rounds, valid)
	}
	return t
}

// E8AugmentationAblation is the design-choice ablation: how the augmentation
// depth of the order construction affects the measured wcol_2r, the cover
// degree and the dominating set size (experiment E8 of DESIGN.md).
func E8AugmentationAblation(cfg Config) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Ablation: transitive–fraternal augmentation depth vs order quality",
		Header: []string{"family", "r", "depth", "wcol_2r", "cover degree", "|D|", "LB",
			"ratio", "H-partition wcol_2r", "H-partition |D|", "refined wcol_2r", "refined |D|"},
	}
	fams := []string{"grid", "apollonian", "geometric"}
	if len(cfg.Families) > 0 {
		fams = cfg.Families
	}
	for _, name := range fams {
		f, err := gen.FamilyByName(name)
		if err != nil {
			continue
		}
		r := 2
		if len(cfg.Radii) > 0 {
			r = cfg.Radii[len(cfg.Radii)-1]
		}
		g := instance(f, cfg.N/2, cfg.Seed+7)
		// Distributed orders for comparison: the plain H-partition order and
		// the refined (relayed shortcut H-partition) order.
		hp, hpErr := distalgo.RunHPartition(g, dist.CongestBC, g.Degeneracy(), 1, dist.Options{})
		hpWcol, hpD := 0, 0
		if hpErr == nil {
			hpWcol = order.WColMeasure(g, hp.Order, 2*r)
			hpD = len(domset.FromOrder(g, hp.Order, r))
		}
		refWcol, refD := 0, 0
		if ro, err := distalgo.RunRefinedOrder(g, 2*r, 0, dist.CongestBC, dist.Options{}); err == nil {
			refWcol = order.WColMeasure(g, ro.Order, 2*r)
			refD = len(domset.FromOrder(g, ro.Order, r))
		}
		for depth := 0; depth <= r+1; depth++ {
			res := order.Construct(g, order.Options{Radius: r, AugmentationDepth: depth})
			o := res.Order
			wc := order.WColMeasure(g, o, 2*r)
			c := cover.Build(g, o, r)
			D := domset.FromOrder(g, o, r)
			lb := domset.ScatteredLowerBound(g, r, D)
			t.AddRow(name, r, depth, wc, c.Degree(), len(D), lb, ratio(len(D), lb),
				hpWcol, hpD, refWcol, refD)
		}
	}
	return t
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func equalSets(a, b []int) bool {
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
