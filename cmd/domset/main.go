// Command domset is the library's command line.  It computes (connected)
// distance-r dominating sets with the paper's algorithms, sequentially or on
// the distributed simulator, builds sparse r-neighborhood covers, and writes
// the instances it runs on.  Every mode but graph verifies its output.
//
// Usage:
//
//	domset -family grid -n 4096 -r 2                             # sequential Theorem 5
//	domset -family grid -n 4096 -r 2 -solver kubsv               # any strategy of bedom.Solvers()
//	domset -family apollonian -n 2000 -r 1 -connected            # sequential Corollary 13
//	domset -in network.graph -r 2 -mode congestbc                # distributed Theorem 9
//	domset -family grid -n 1024 -r 1 -connected -mode congestbc  # Theorem 10
//	domset -family geometric -n 1500 -r 2 -mode congestbc -solver kubsv  # kubsv, in LOCAL
//	domset -family geometric -n 1500 -r 2 -mode local-connect    # Lemma 16
//	domset -family apollonian -n 1000 -mode planar-local         # Theorem 17 (r = 1)
//	domset -family apollonian -n 2000 -r 2 -mode cover           # Theorem 4 cover
//	domset -family apollonian -n 1000 -mode graph > g.graph      # the instance as an edge list
//
// Mode congestbc runs the simulator, each pipeline in the model the paper
// states it for: Theorems 9 and 10 in CONGEST_BC, -solver kubsv in LOCAL.
// A generated instance is restricted to its largest connected component.
// The exit status is 1 on bad input or a failed pipeline and 2 when the
// output fails verification.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"bedom"
	"bedom/internal/cover"
	"bedom/internal/gen"
)

// modes lists the values of -mode.
var modes = []string{"seq", "congestbc", "local-connect", "planar-local", "cover", "graph"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation with the given arguments and returns its exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("domset", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "input graph file (edge-list); overrides -family")
		family     = fs.String("family", "grid", "graph family to generate when -in is not given")
		n          = fs.Int("n", 1024, "approximate number of vertices for generated graphs")
		seed       = fs.Int64("seed", 1, "random seed for generated graphs")
		r          = fs.Int("r", 1, "domination or cover radius")
		connected  = fs.Bool("connected", false, "compute a connected distance-r dominating set")
		mode       = fs.String("mode", "seq", strings.Join(modes, " | "))
		solverName = fs.String("solver", "", "strategy: any of bedom.Solvers() in seq mode, paper (CONGEST_BC) or kubsv (LOCAL) in congestbc mode (default paper)")
		printSet   = fs.Bool("print-set", false, "print the vertices of the computed set")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "domset:", err)
		return 1
	}
	switch {
	case !slices.Contains(modes, *mode):
		return fail(fmt.Errorf("unknown mode %q (modes: %s)", *mode, strings.Join(modes, ", ")))
	case *mode != "graph" && *r < 1:
		return fail(fmt.Errorf("radius must be ≥ 1, got %d", *r))
	case *mode == "planar-local" && *r != 1:
		return fail(fmt.Errorf("planar-local runs the r = 1 pipeline of Theorem 17, got -r %d", *r))
	case *solverName != "" && (*connected || (*mode != "seq" && *mode != "congestbc")):
		return fail(errors.New("-solver applies only to -mode seq and congestbc without -connected"))
	}

	g, err := loadGraph(*in, *family, *n, *seed)
	if err != nil {
		return fail(err)
	}
	summary := stdout
	if *mode == "graph" {
		summary = stderr
	}
	fmt.Fprintf(summary, "graph: n=%d m=%d degeneracy=%d\n", g.N(), g.M(), g.Degeneracy())

	var (
		set   []int
		valid bool
	)
	switch *mode {
	case "graph":
		if err := bedom.WriteGraph(stdout, g); err != nil {
			return fail(err)
		}
		return 0
	case "cover":
		valid = buildCover(g, *r, stdout, stderr)
	default:
		if set, err = solve(g, *mode, *r, *connected, *solverName, stdout); err != nil {
			return fail(err)
		}
		valid = bedom.IsDominatingSet(g, set, *r)
		if *connected || *mode == "local-connect" || *mode == "planar-local" {
			valid = bedom.IsConnectedDominatingSet(g, set, *r)
		}
	}
	fmt.Fprintf(stdout, "verification: valid=%v\n", valid)
	if *printSet && *mode != "cover" {
		slices.Sort(set)
		fmt.Fprintln(stdout, set)
	}
	if !valid {
		return 2
	}
	return 0
}

// solve runs one of the set-producing modes, prints its summary line, and
// returns the set.
func solve(g *bedom.Graph, mode string, r int, connected bool, solverName string, w io.Writer) ([]int, error) {
	switch {
	case mode == "seq" && connected:
		res, err := bedom.ConnectedDominatingSet(g, r)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "sequential connected distance-%d dominating set: |D'|=%d  lower bound=%d  wcol=%d\n",
			r, len(res.Set), res.LowerBound, res.Wcol2R)
		return res.Set, nil
	case mode == "seq":
		res, err := bedom.DominatingSetWith(g, r, solverName)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "sequential distance-%d dominating set: |D|=%d  lower bound=%d  ratio≤%.2f  wcol_2r=%d  solver=%s\n",
			r, len(res.Set), res.LowerBound, res.Ratio(), res.Wcol2R, res.Solver)
		return res.Set, nil
	case mode == "congestbc" && connected:
		res, err := bedom.DistributedConnectedDominatingSet(g, r)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "CONGEST_BC connected distance-%d dominating set: |D|=%d |D'|=%d rounds=%d messages=%d max-msg-words=%d\n",
			r, len(res.DomSet), len(res.Set), res.Rounds, res.Messages, res.MaxMessageWords)
		return res.Set, nil
	case mode == "congestbc":
		res, err := bedom.DistributedDominatingSet(g, r, bedom.DistributedOptions{Solver: solverName})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "distributed distance-%d dominating set: |D|=%d rounds=%d messages=%d max-msg-words=%d solver=%s\n",
			r, len(res.Set), res.Rounds, res.Messages, res.MaxMessageWords, res.Solver)
		return res.Set, nil
	case mode == "local-connect":
		base, err := bedom.DominatingSet(g, r)
		if err != nil {
			return nil, err
		}
		res, err := bedom.LocalConnect(g, base.Set, r)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "LOCAL connector (Lemma 16): |D|=%d → |D'|=%d in %d rounds (3r+1=%d)\n",
			len(base.Set), len(res.Set), res.Rounds, 3*r+1)
		return res.Set, nil
	default: // planar-local
		res, err := bedom.PlanarLocalConnectedDominatingSet(g)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "planar LOCAL pipeline (Theorem 17): |Lenzen D|=%d → |D'|=%d (factor %.2f ≤ 6) in %d rounds\n",
			len(res.DomSet), len(res.Set), float64(len(res.Set))/float64(max(1, len(res.DomSet))), res.Rounds)
		return res.Set, nil
	}
}

// buildCover builds the Theorem 4 cover on the facade's order for radius r,
// prints its statistics, and reports whether it passes cover.Verify.
func buildCover(g *bedom.Graph, r int, stdout, stderr io.Writer) bool {
	o := bedom.BuildOrder(g, r)
	c := cover.Build(g, o, r)
	st := c.ComputeStats(g)
	fmt.Fprintf(stdout, "order: measured wcol_%d = %d\n", 2*r, bedom.WeakColouringNumber(g, o, 2*r))
	fmt.Fprintf(stdout, "cover: clusters=%d degree=%d avg-degree=%.2f max-radius=%d (bound 2r=%d) max-cluster=%d avg-cluster=%.1f\n",
		st.NumClusters, st.Degree, st.AvgDegree, st.MaxRadius, 2*r, st.MaxClusterSize, st.AvgClusterSize)
	if err := c.Verify(g); err != nil {
		fmt.Fprintln(stderr, "domset: cover verification failed:", err)
		return false
	}
	return true
}

// loadGraph reads the edge-list file at path, or generates the family's
// instance and restricts it to its largest component.
func loadGraph(path, family string, n int, seed int64) (*bedom.Graph, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bedom.ReadGraph(f)
	}
	fam, err := gen.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	lc, _ := gen.LargestComponent(fam.Generate(n, seed))
	return lc, nil
}
