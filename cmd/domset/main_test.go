package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"bedom"
)

// invoke runs the command with args and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestModes(t *testing.T) {
	type tc struct {
		name string
		args []string
		want string // a line prefix the summary must contain
	}
	var cases []tc
	for _, s := range bedom.Solvers() {
		cases = append(cases, tc{"seq/" + s, []string{"-family", "grid", "-n", "100", "-r", "2", "-solver", s},
			"solver=" + s})
	}
	cases = append(cases,
		tc{"seq/default", []string{"-family", "grid", "-n", "100"}, "solver=paper"},
		tc{"seq/connected", []string{"-family", "apollonian", "-n", "100", "-connected"}, "sequential connected distance-1"},
		tc{"congestbc", []string{"-family", "grid", "-n", "100", "-mode", "congestbc"}, "distributed distance-1 dominating set"},
		tc{"congestbc/connected", []string{"-family", "grid", "-n", "100", "-mode", "congestbc", "-connected"}, "CONGEST_BC connected distance-1"},
		tc{"congestbc/kubsv", []string{"-family", "grid", "-n", "100", "-r", "2", "-mode", "congestbc", "-solver", "kubsv"}, "distributed distance-2 dominating set"},
		tc{"local-connect", []string{"-family", "grid", "-n", "100", "-r", "2", "-mode", "local-connect"}, "LOCAL connector (Lemma 16)"},
		tc{"planar-local", []string{"-family", "apollonian", "-n", "100", "-mode", "planar-local"}, "planar LOCAL pipeline"},
		tc{"cover", []string{"-family", "apollonian", "-n", "100", "-r", "2", "-mode", "cover"}, "cover: clusters=100"},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := invoke(c.args...)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}
			if !strings.Contains(out, c.want) || !strings.Contains(out, "\nverification: valid=true\n") {
				t.Fatalf("want %q and valid=true in:\n%s", c.want, out)
			}
		})
	}
}

// TestSolverSelectsStrategy checks that -solver reaches the named strategy:
// the kubsv simulator run takes exactly 7r rounds and its summary names the
// strategy, and -print-set prints the facade's set for the strategy.
func TestSolverSelectsStrategy(t *testing.T) {
	_, out, _ := invoke("-family", "grid", "-n", "100", "-r", "2", "-mode", "congestbc", "-solver", "kubsv")
	if !strings.Contains(out, " rounds=14 ") || !strings.Contains(out, " solver=kubsv\n") {
		t.Fatalf("kubsv at r=2 must run 14 rounds and be named:\n%s", out)
	}
	g, err := loadGraph("", "grid", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bedom.DominatingSetWith(g, 2, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Sorted(slices.Values(res.Set))
	_, out, _ = invoke("-family", "grid", "-n", "100", "-r", "2", "-solver", "greedy", "-print-set")
	if !strings.HasSuffix(out, fmt.Sprintln(want)) {
		t.Fatalf("printed set differs from DominatingSetWith(g, 2, \"greedy\") = %v:\n%s", want, out)
	}
}

// TestGraphModeRoundTrip writes an instance with -mode graph and reads it
// back through -in: the graph and the answer must be the generated ones.
func TestGraphModeRoundTrip(t *testing.T) {
	family := []string{"-family", "apollonian", "-n", "300", "-seed", "3"}
	code, doc, summary := invoke(append(family, "-mode", "graph")...)
	if code != 0 || !strings.HasPrefix(summary, "graph: n=300 ") {
		t.Fatalf("graph mode: exit %d, stderr %q", code, summary)
	}
	path := filepath.Join(t.TempDir(), "g.graph")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, want, _ := invoke(append(family, "-r", "2", "-print-set")...)
	code, got, errOut := invoke("-in", path, "-r", "2", "-print-set")
	if code != 0 || got != want {
		t.Fatalf("-in run (exit %d, %s) differs from the generated run:\n%s\nwant:\n%s", code, errOut, got, want)
	}
}

func TestErrors(t *testing.T) {
	grid := []string{"-family", "grid", "-n", "100"}
	type errCase struct {
		name string
		args []string
		want *regexp.Regexp
	}
	cases := []errCase{
		{"unknown mode", append(grid, "-mode", "bogus"), regexp.MustCompile(`unknown mode "bogus" \(modes: seq, congestbc`)},
		{"unknown family", []string{"-family", "nosuchfamily"}, regexp.MustCompile(`unknown family "nosuchfamily" \(registered: grid, `)},
		{"unknown solver", append(grid, "-solver", "nope"), regexp.MustCompile(`unknown solver "nope" \(registered: `)},
		{"sequential-only solver", append(grid, "-mode", "congestbc", "-solver", "greedy"), regexp.MustCompile(`no distributed engine`)},
		{"solver with connected", append(grid, "-connected", "-solver", "kubsv"), regexp.MustCompile(`-solver applies only`)},
		{"solver in local-connect", append(grid, "-mode", "local-connect", "-solver", "paper"), regexp.MustCompile(`-solver applies only`)},
		{"planar-local at r=2", append(grid, "-mode", "planar-local", "-r", "2"), regexp.MustCompile(`planar-local runs the r = 1 pipeline`)},
		{"missing file", []string{"-in", filepath.Join(t.TempDir(), "none.graph")}, regexp.MustCompile(`none\.graph`)},
		{"bad flag", []string{"-no-such-flag"}, regexp.MustCompile(`flag provided but not defined`)},
	}
	for _, m := range modes {
		if m == "graph" {
			continue
		}
		for _, r := range []string{"0", "-1"} {
			cases = append(cases, errCase{m + " r=" + r, append(grid, "-mode", m, "-r", r),
				regexp.MustCompile(`radius must be ≥ 1, got ` + r)})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := invoke(c.args...)
			if code != 1 || !c.want.MatchString(errOut) {
				t.Fatalf("want exit 1 and %q on stderr, got exit %d\nstdout:\n%s\nstderr:\n%s", c.want, code, out, errOut)
			}
			if strings.Contains(out, "verification:") {
				t.Fatalf("a rejected invocation ran a pipeline:\n%s", out)
			}
		})
	}
}
