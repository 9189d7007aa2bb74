// Command benchrun executes the experiment suite E1–E10 (see DESIGN.md §4)
// and prints the tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchrun                    # full suite, plain-text tables
//	benchrun -tier quick        # reduced workload (seconds instead of minutes)
//	benchrun -tier large        # scale tier: million-vertex instances (L1)
//	benchrun -markdown          # markdown tables (used to update EXPERIMENTS.md)
//	benchrun -json              # one JSON document (perf-trajectory snapshots)
//	benchrun -exp E3,E7         # selected experiments only
//	benchrun -n 4000 -seed 3    # override workload size / seed
//	benchrun -round-profile dir # write Perfetto round-profile traces of the
//	                            # distributed runs (E10) into dir

//	benchrun -compare BENCH_baseline.json BENCH_new.json
//	                            # regression gate: compare two snapshots,
//	                            # exit 1 if any cell differs
//
// The quick and full tiers run E1–E10; the large tier runs the scale
// experiments (L1) at 10⁶–10⁷ vertices (-n overrides the size), exercising
// the raw-aligned snapshot format and the zero-copy mmap recovery path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"bedom/internal/exp"
)

// snapshotSchema versions the -json document; bump it whenever the snapshot
// layout changes so downstream consumers (the CI perf gate, jq assertions)
// can key off it instead of guessing from field shapes.  Schema 3 added the
// workload tier (quick | full | large) alongside the legacy quick boolean.
const snapshotSchema = 3

// snapshot is the JSON document emitted by -json: enough provenance to
// compare perf trajectories across PRs (CI writes one per run and gates on
// its identity with the committed baseline).
type snapshot struct {
	Schema      int    `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// Tier is the workload tier the snapshot was produced with; snapshots
	// from different tiers are never comparable.
	Tier string `json:"tier"`
	// Quick mirrors Tier == "quick" for older tooling.
	Quick  bool         `json:"quick"`
	Config exp.Config   `json:"config"`
	Tables []*exp.Table `json:"tables"`
}

// Workload tiers: quick and full run E1–E10 at unit-test / laptop sizes;
// large runs the scale experiments (L1) at million-vertex sizes.
const (
	tierQuick = "quick"
	tierFull  = "full"
	tierLarge = "large"
)

func main() {
	var (
		tier     = flag.String("tier", tierFull, "workload tier: quick, full or large")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		jsonOut  = flag.Bool("json", false, "emit one JSON document with all tables")
		only     = flag.String("exp", "", "comma-separated experiment ids to run (default: all)")
		n        = flag.Int("n", 0, "override the default graph size")
		seed     = flag.Int64("seed", 0, "override the random seed")
		compare  = flag.String("compare", "", "baseline snapshot: compare the candidate snapshot (positional arg) against it and exit")
		traceDir = flag.String("round-profile", "", "directory for Perfetto round-profile trace artifacts of the distributed experiment runs")
	)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchrun: -compare needs exactly one candidate snapshot argument")
			os.Exit(2)
		}
		if err := compareSnapshots(*compare, flag.Arg(0), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
		return
	}

	if !slices.Contains([]string{tierQuick, tierFull, tierLarge}, *tier) {
		fmt.Fprintf(os.Stderr, "benchrun: unknown tier %q (want quick, full or large)\n", *tier)
		os.Exit(2)
	}

	cfg := exp.DefaultConfig()
	if *tier == tierQuick {
		cfg = exp.QuickConfig()
	}
	if *n > 0 {
		// In the large tier -n sizes the scale instances; elsewhere it sizes
		// the quality experiments.
		if *tier == tierLarge {
			cfg.LargeN = *n
		} else {
			cfg.N = *n
		}
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.TraceDir = *traceDir

	suite := exp.All()
	if *tier == tierLarge {
		suite = exp.Scale()
	}
	suite, err := selectExperiments(suite, *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: tier %s: %v\n", *tier, err)
		os.Exit(1)
	}

	var tables []*exp.Table
	for _, e := range suite {
		fmt.Fprintf(os.Stderr, "running %s — %s ...\n", e.ID, e.Title)
		tbl := e.Run(cfg)
		switch {
		case *jsonOut:
			tables = append(tables, tbl)
		case *markdown:
			fmt.Print(tbl.Markdown())
		default:
			fmt.Println(tbl.Format())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot{
			Schema:      snapshotSchema,
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Tier:        *tier,
			Quick:       *tier == tierQuick,
			Config:      cfg,
			Tables:      tables,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "benchrun:", err)
			os.Exit(1)
		}
	}
}

// selectExperiments returns the experiments of suite named in the
// comma-separated list only (case-insensitive), in suite order; an empty
// list selects all of them.  An id that names no experiment of the suite is
// an error listing the suite's ids.
func selectExperiments(suite []exp.Experiment, only string) ([]exp.Experiment, error) {
	if only == "" {
		return suite, nil
	}
	ids := make([]string, len(suite))
	for i, e := range suite {
		ids[i] = e.ID
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %s (experiments: %s)", id, strings.Join(ids, ", "))
		}
		selected[id] = true
	}
	var out []exp.Experiment
	for _, e := range suite {
		if selected[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
