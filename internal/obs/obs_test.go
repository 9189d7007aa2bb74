package obs

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the full exposition output for a registry
// with every metric type, labels needing escaping, and a histogram — names,
// HELP/TYPE lines, series ordering, cumulative buckets, the lot.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("bedom_simple_total", "A simple counter.").Add(42)
	qv := r.CounterVec("bedom_queries_total", "Queries by kind and solver.", "kind", "solver")
	qv.With("domset", "paper").Add(5)
	qv.With("cover", "").Inc()
	qv.With("domset", "kubsv").Add(2)
	r.Gauge("bedom_cache_entries", "Live cache entries.").Set(3)
	r.GaugeFunc("bedom_graphs", "Registered graphs.", func() float64 { return 7 })
	esc := r.CounterVec("bedom_weird_total", `Help with backslash \ and
newline.`, "name")
	esc.With("a\\b\"c\nd").Inc()
	esc.With("\\").Inc()
	esc.With("end\"").Add(2)
	h := r.Histogram("bedom_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	// An instantiated histogram with zero observations still exposes its
	// full bucket ladder (all-zero), sum and count.
	r.Histogram("bedom_empty_seconds", "Never observed.", []float64{0.1, 1})
	// An explicit +Inf in the bucket list folds into the implicit overflow
	// bucket: exactly one le="+Inf" line.
	ov := r.Histogram("bedom_overflow_seconds", "Explicit +Inf bucket.", []float64{1, math.Inf(1)})
	ov.Observe(0.5)
	ov.Observe(100)
	// Vec families with no series yet expose nothing at all.
	r.CounterVec("bedom_unused_total", "No series.", "kind")
	r.HistogramVec("bedom_unused_seconds", "No series.", nil, "stage")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP bedom_cache_entries Live cache entries.
# TYPE bedom_cache_entries gauge
bedom_cache_entries 3
# HELP bedom_empty_seconds Never observed.
# TYPE bedom_empty_seconds histogram
bedom_empty_seconds_bucket{le="0.1"} 0
bedom_empty_seconds_bucket{le="1"} 0
bedom_empty_seconds_bucket{le="+Inf"} 0
bedom_empty_seconds_sum 0
bedom_empty_seconds_count 0
# HELP bedom_graphs Registered graphs.
# TYPE bedom_graphs gauge
bedom_graphs 7
# HELP bedom_latency_seconds Latency.
# TYPE bedom_latency_seconds histogram
bedom_latency_seconds_bucket{le="0.001"} 1
bedom_latency_seconds_bucket{le="0.01"} 3
bedom_latency_seconds_bucket{le="0.1"} 4
bedom_latency_seconds_bucket{le="+Inf"} 5
bedom_latency_seconds_sum 5.0605
bedom_latency_seconds_count 5
# HELP bedom_overflow_seconds Explicit +Inf bucket.
# TYPE bedom_overflow_seconds histogram
bedom_overflow_seconds_bucket{le="1"} 1
bedom_overflow_seconds_bucket{le="+Inf"} 2
bedom_overflow_seconds_sum 100.5
bedom_overflow_seconds_count 2
# HELP bedom_queries_total Queries by kind and solver.
# TYPE bedom_queries_total counter
bedom_queries_total{kind="cover",solver=""} 1
bedom_queries_total{kind="domset",solver="kubsv"} 2
bedom_queries_total{kind="domset",solver="paper"} 5
# HELP bedom_simple_total A simple counter.
# TYPE bedom_simple_total counter
bedom_simple_total 42
# HELP bedom_weird_total Help with backslash \\ and\nnewline.
# TYPE bedom_weird_total counter
bedom_weird_total{name="\\"} 1
bedom_weird_total{name="a\\b\"c\nd"} 1
bedom_weird_total{name="end\""} 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketMonotonicity checks the exposed cumulative buckets
// never decrease and that _count equals the +Inf bucket.
func TestHistogramBucketMonotonicity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bedom_h_seconds", "h", DefBuckets)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%97) / 100)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	var inf, count int64
	for _, line := range strings.Split(b.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "bedom_h_seconds_bucket"):
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("bucket counts not monotone: %d after %d (%q)", v, last, line)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, "bedom_h_seconds_count"):
			count, _ = strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		}
	}
	if inf != 1000 || count != 1000 {
		t.Fatalf("+Inf bucket %d / _count %d, want 1000 each", inf, count)
	}
}

// TestConcurrentHammer exercises counters, gauges, histograms, vec lookups
// and exposition from 8 goroutines; run under -race it is the data-race
// gate for the whole registry.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bedom_hammer_total", "hammer")
	cv := r.CounterVec("bedom_hammer_labeled_total", "hammer", "worker")
	g := r.Gauge("bedom_hammer_gauge", "hammer")
	h := r.Histogram("bedom_hammer_seconds", "hammer", DefBuckets)
	hv := r.HistogramVec("bedom_hammer_labeled_seconds", "hammer", DefBuckets, "worker")

	const workers, iters = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := fmt.Sprintf("w%d", w)
			for i := 0; i < iters; i++ {
				c.Inc()
				cv.With(lbl).Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
				hv.With(lbl).Observe(float64(i%10) / 100)
				if i%500 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if cv.Total() != workers*iters {
		t.Fatalf("vec total = %d, want %d", cv.Total(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if hv.TotalCount() != workers*iters {
		t.Fatalf("histogram vec count = %d, want %d", hv.TotalCount(), workers*iters)
	}
}

// TestRegistryIdempotent re-requests families and checks mismatches panic.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("bedom_x_total", "x")
	b := r.Counter("bedom_x_total", "x")
	if a != b {
		t.Fatal("re-requesting a counter returned a different instance")
	}
	v1 := r.CounterVec("bedom_y_total", "y", "k")
	v2 := r.CounterVec("bedom_y_total", "y", "k")
	if v1.With("a") != v2.With("a") {
		t.Fatal("re-requesting a vec series returned a different instance")
	}
	mustPanic(t, "type mismatch", func() { r.Gauge("bedom_x_total", "x") })
	mustPanic(t, "label mismatch", func() { r.CounterVec("bedom_y_total", "y", "other") })
	mustPanic(t, "label arity", func() { v1.With("a", "b") })
	mustPanic(t, "bad name", func() { r.Counter("9bad", "x") })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		42:          "42",
		-3:          "-3",
		0.25:        "0.25",
		1e-5:        "1e-05",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("q-test")
	ctx := WithTrace(context.Background(), tr)
	if QueryID(ctx) != "q-test" {
		t.Fatalf("QueryID = %q", QueryID(ctx))
	}
	sp := Start(ctx, "order")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration %v", d)
	}
	sp2 := Start(ctx, "wreach")
	sp2.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "order" || spans[1].Name != "wreach" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].DurMS <= 0 {
		t.Fatalf("span 0 duration %v", spans[0].DurMS)
	}
	if !strings.Contains(tr.String(), "order@") {
		t.Fatalf("trace string %q", tr.String())
	}
	// Spans without a trace are safe no-ops.
	sp3 := Start(context.Background(), "stray")
	sp3.End()
	// Query IDs are unique.
	if NewQueryID() == NewQueryID() {
		t.Fatal("query IDs collided")
	}
}

// TestStartAllocs: a span on a context without a trace allocates nothing,
// so the engine's stage spans cost a warm query no allocation when nobody
// traces it.  The race detector allocates on its own, so the test skips
// under -race.
func TestStartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { Start(ctx, "stray").End() }); n != 0 {
		t.Fatalf("traceless Start(...).End() allocates %.1f times, want 0", n)
	}
}
