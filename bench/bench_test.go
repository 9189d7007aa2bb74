package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit string
}

// resultLine is the JSON object on the last line of the output.
type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestSmoke runs every workload for one second on graphs of at most 2k
// vertices, untraced and traced, and checks that each prints every metric
// BENCHMARK.json lists, with its unit, and that no operation or answer
// check failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs domserved")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, harness workloads %s", got, want)
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			traceFile := filepath.Join(t.TempDir(), "trace.json")
			var out bytes.Buffer
			ok, err := run(config{root: "..", workload: w, seed: 1, seconds: 1, trace: trace,
				traceFile: traceFile, repeat: 1, smoke: true}, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w, trace, err, out.String())
			}
			res := lastResult(t, out.Bytes())
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: ok=%t correct=%t failed=%d attempted=%d\n%s",
					w, trace, ok, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if !strings.Contains(out.String(), "# go=") {
				t.Errorf("%s trace=%t: no provenance header", w, trace)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s unit %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace {
				checkTraceFile(t, traceFile)
			}
		}
	}
}

// lastResult parses the last line of the output as the result object.
func lastResult(t *testing.T, out []byte) resultLine {
	t.Helper()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return res
}

// checkTraceFile checks that the traced run wrote trace-event JSON with
// spans from both the replay and the layer sweep.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			PID  int
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	pids := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" {
			t.Fatalf("trace event %+v is not a named complete event", ev)
		}
		pids[ev.PID] = true
	}
	if !pids[pidReplay] || !pids[pidSweep] {
		t.Errorf("trace has process rows %v, want replay %d and sweep %d", pids, pidReplay, pidSweep)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestMutatorKeepsSizeLevel(t *testing.T) {
	in := churnInputs(3, true)
	g := in.graph("geo20k")
	m := newMutator(g, 7, 4)
	live := make(map[[2]int]bool)
	for i := 0; i < 50; i++ {
		d := m.next()
		for _, e := range d.Add {
			if g.HasEdge(e[0], e[1]) || live[e] {
				t.Fatalf("delta %d adds present edge %v", i, e)
			}
			if dist := g.Dist(e[0], e[1]); dist != 2 {
				t.Fatalf("delta %d adds edge %v between vertices at distance %d, want 2", i, e, dist)
			}
			live[e] = true
		}
		for _, e := range d.Remove {
			if !live[e] {
				t.Fatalf("delta %d removes absent edge %v", i, e)
			}
			delete(live, e)
		}
		if len(live) != min(i+1, 4) {
			t.Fatalf("after delta %d: %d live edges, want %d", i, len(live), min(i+1, 4))
		}
		for _, e := range m.liveEdges() {
			if !live[e] {
				t.Fatalf("after delta %d: liveEdges reports %v, which is not live", i, e)
			}
		}
	}
}
