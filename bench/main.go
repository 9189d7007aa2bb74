// Command bench is the repository benchmark: it builds cmd/domserved, drives
// the real daemon over loopback HTTP with one of four seeded closed-loop
// workloads, checks every answer, and prints the end-to-end metrics.  With
// -trace 1 it instead prints the per-layer metrics, taken from outside the
// program: /metrics scrapes around a daemon run, an in-process replay of the
// same operations through the engine, and a sweep over each layer's public
// functions.  See README.md for the workloads and the metric map.
//
// Run from the repository root through the wrapper, which keeps every build
// product under .bench_build/:
//
//	bash bench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
package main

import (
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// config is one invocation of the benchmark.
type config struct {
	root      string // repository root: holds go.mod and cmd/domserved
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceFile string
	repeat    int
	smoke     bool
	jsonFile  string
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.root, "root", "", "repository root (default: the nearest parent of the working directory holding cmd/domserved)")
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a trace-event file")
	flag.StringVar(&cfg.traceFile, "trace-file", "", "trace-event JSON written by -trace 1 (default .bench_build/trace/<workload>-seed<N>.json)")
	flag.IntVar(&cfg.repeat, "repeat", 1, "run each workload this many times and print each metric's median and quartiles")
	flag.BoolVar(&cfg.smoke, "smoke", false, "graphs of at most 2k vertices, for testing the harness")
	flag.StringVar(&cfg.jsonFile, "json", "", "also write the provenance and every run's metrics to this JSON file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	cfg.trace = trace == 1
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run executes cfg and writes the report to w.  It returns false when an
// answer check failed or an operation failed; err reports a harness failure
// (no result printed).
func run(cfg config, w io.Writer) (bool, error) {
	if cfg.seconds <= 0 || cfg.repeat < 1 {
		return false, errors.New("-seconds must be positive and -repeat at least 1")
	}
	root, err := findRoot(cfg.root)
	if err != nil {
		return false, err
	}
	cfg.root = root
	var wls []*workload
	if cfg.workload == "all" {
		wls = workloads()
	} else {
		wl, err := workloadByName(cfg.workload)
		if err != nil {
			return false, err
		}
		wls = []*workload{wl}
	}
	buildDir := filepath.Join(root, ".bench_build")
	daemonBin, err := buildDaemon(root, buildDir)
	if err != nil {
		return false, err
	}
	prov := newProvenance(cfg, daemonBin)
	prov.print(w)

	report := jsonReport{Provenance: prov}
	allOK := true
	for _, wl := range wls {
		var runs []*result
		for i := 0; i < cfg.repeat; i++ {
			res, err := runOnce(cfg, wl, daemonBin, buildDir)
			if err != nil {
				return false, fmt.Errorf("workload %s: %w", wl.name, err)
			}
			res.print(w)
			runs = append(runs, res)
			report.Runs = append(report.Runs, res)
			allOK = allOK && res.ok()
		}
		final := runs[0]
		if cfg.repeat > 1 {
			final = summarize(w, runs)
		}
		final.printJSON(w)
	}
	if cfg.jsonFile != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.jsonFile, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

// runOnce runs one workload once, in a private directory under buildDir that
// is removed afterwards.
func runOnce(cfg config, wl *workload, daemonBin, buildDir string) (*result, error) {
	workRoot := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in := wl.inputs(cfg.seed, cfg.smoke)
	env := &runEnv{cfg: cfg, wl: wl, in: in, daemonBin: daemonBin, dir: dir}
	if !cfg.trace {
		return env.endToEnd()
	}
	traceFile := cfg.traceFile
	if traceFile == "" {
		traceFile = filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", wl.name, cfg.seed))
	}
	return env.perLayer(traceFile)
}

// findRoot returns dir, or when empty the nearest parent of the working
// directory that holds cmd/domserved.
func findRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		for d := wd; ; d = filepath.Dir(d) {
			if isRoot(d) {
				return d, nil
			}
			if filepath.Dir(d) == d {
				return "", fmt.Errorf("no parent of %s holds go.mod and cmd/domserved; pass -root", wd)
			}
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if !isRoot(abs) {
		return "", fmt.Errorf("%s does not hold go.mod and cmd/domserved", abs)
	}
	return abs, nil
}

func isRoot(dir string) bool {
	_, errMod := os.Stat(filepath.Join(dir, "go.mod"))
	_, errCmd := os.Stat(filepath.Join(dir, "cmd", "domserved"))
	return errMod == nil && errCmd == nil
}

// buildDaemon compiles cmd/domserved into buildDir once per invocation (the
// Go build cache makes repeated invocations cheap).
func buildDaemon(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "domserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/domserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/domserved: %v\n%s", err, out)
	}
	return bin, nil
}

// provenance identifies the machine, toolchain and inputs of a report so
// later comparisons can cite it.
type provenance struct {
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
	Smoke          bool    `json:"smoke"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"nproc"`
	GoVersion      string  `json:"go_version"`
	BenchRevision  string  `json:"bench_revision"`
	DaemonRevision string  `json:"daemon_revision"`
}

func newProvenance(cfg config, daemonBin string) provenance {
	p := provenance{
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		BenchRevision: "unknown", DaemonRevision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		p.BenchRevision = vcsRevision(bi)
	}
	if bi, err := buildinfo.ReadFile(daemonBin); err == nil {
		p.DaemonRevision = vcsRevision(bi)
	}
	return p
}

func vcsRevision(bi *debug.BuildInfo) string {
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "# bench seed=%d seconds=%g trace=%t smoke=%t\n", p.Seed, p.Seconds, p.Trace, p.Smoke)
	fmt.Fprintf(w, "# go=%s GOMAXPROCS=%d nproc=%d bench_revision=%s daemon_revision=%s\n",
		p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.BenchRevision, p.DaemonRevision)
}

// jsonReport is the -json document.
type jsonReport struct {
	Provenance provenance `json:"provenance"`
	Runs       []*result  `json:"runs"`
}

// summarize prints each metric's median and quartiles over runs of one
// workload and returns a result carrying the medians.
func summarize(w io.Writer, runs []*result) *result {
	out := &result{Workload: runs[0].Workload, Graphs: runs[0].Graphs}
	fmt.Fprintf(w, "## %s: median [q1, q3] over %d runs (spread = (q3-q1)/median)\n", out.Workload, len(runs))
	for i, m := range runs[0].Metrics {
		vals := make([]float64, len(runs))
		for j, r := range runs {
			vals[j] = r.Metrics[i].Value
		}
		q1, med, q3 := quartiles(vals)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(w, "%-34s %12.4f [%.4f, %.4f] spread %.3f %s\n", m.Name, med, q1, q3, spread, m.Unit)
		out.Metrics = append(out.Metrics, metric{Name: m.Name, Value: med, Unit: m.Unit})
	}
	for _, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Problems = append(out.Problems, r.Problems...)
	}
	return out
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the metrics printed in the final JSON
// line, text-only diagnostics, and the operation and check accounting.
type result struct {
	Workload  string      `json:"workload"`
	Graphs    []graphInfo `json:"graphs"`
	Metrics   []metric    `json:"metrics"`
	Diag      []metric    `json:"diagnostics,omitempty"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Problems  []string    `json:"problems,omitempty"`
	// selfTime is the traced run's self-time table, printed only.
	selfTime []selfRow
}

// graphInfo is the size of one generated input graph.
type graphInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
}

func (r *result) ok() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *result) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not a finite number", name)
		v = 0
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

// diag records a text-only diagnostic; a value with no defined result (a
// ratio over zero events) is left out.
func (r *result) diag(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Diag = append(r.Diag, metric{Name: name, Value: v, Unit: unit})
}

// problem records a failed check (each counts as one failed operation).
func (r *result) problem(format string, args ...any) {
	r.Failed++
	const keep = 20
	if len(r.Problems) < keep {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "## workload %s\n", r.Workload)
	for _, g := range r.Graphs {
		fmt.Fprintf(w, "# graph %s n=%d m=%d\n", g.Name, g.N, g.M)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if len(r.selfTime) > 0 {
		printSelfTime(w, r.selfTime)
	}
	if len(r.Diag) > 0 {
		fmt.Fprintln(w, "# diagnostics (not gated):")
		for _, m := range r.Diag {
			fmt.Fprintf(w, "#   %-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", p)
	}
}

// printJSON writes the one-line result object that ends the output.
func (r *result) printJSON(w io.Writer) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(r.Metrics))
	for _, m := range r.Metrics {
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.ok(), max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	fmt.Fprintln(w, string(line))
}
