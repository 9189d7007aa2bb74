package obs

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestOnScrapeHookRunsPerScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bedom_scrapes_total", "Scrapes observed by the hook.")
	r.OnScrape(func() { c.Inc() })
	var b strings.Builder
	for i := 0; i < 3; i++ {
		b.Reset()
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
	}
	if c.Value() != 3 {
		t.Fatalf("hook ran %d times for 3 scrapes", c.Value())
	}
	// The hook ran before the snapshot, so the last exposition already
	// carries its own increment.
	if !strings.Contains(b.String(), "bedom_scrapes_total 3") {
		t.Fatalf("exposition missing the hook's own increment:\n%s", b.String())
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	runtime.GC() // guarantee at least one pause for the histogram
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"bedom_go_goroutines ",
		"bedom_go_heap_alloc_bytes ",
		"bedom_go_heap_sys_bytes ",
		"bedom_go_gc_cycles_total ",
		"bedom_go_gc_pause_seconds_count ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime exposition missing %q", want)
		}
	}
	if strings.Contains(out, "bedom_go_goroutines 0\n") {
		t.Error("goroutine gauge reads zero in a running process")
	}
}

func TestDefaultRegistryHasRuntimeMetrics(t *testing.T) {
	var b strings.Builder
	if err := Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "bedom_go_goroutines ") {
		t.Fatal("Default() registry does not expose runtime metrics")
	}
}

func TestWriteTraceEvents(t *testing.T) {
	var b strings.Builder
	if err := WriteTraceEvents(&b, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty trace does not parse: %v", err)
	}
	if doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace should round-trip to an empty array, got %v", doc.TraceEvents)
	}

	events := []TraceEvent{{Name: "order", Cat: "stage", Ph: "X", TS: 100, Dur: 35, PID: 7, TID: 3}}
	b.Reset()
	if err := WriteTraceEvents(&b, events); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil || len(doc.TraceEvents) != 1 ||
		doc.TraceEvents[0].Name != "order" || doc.TraceEvents[0].PID != 7 || doc.TraceEvents[0].TID != 3 {
		t.Fatalf("trace round-trip: %v, %+v", err, doc.TraceEvents)
	}
}
