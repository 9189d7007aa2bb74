package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bedom/internal/engine"
	"bedom/internal/fault"
	"bedom/internal/gen"
	"bedom/internal/obs"
)

// faultyServer builds a server whose engine config the test controls,
// returning the httptest server, the engine and the private registry.
func faultyServer(t *testing.T, cfg engine.Config, dataDir string) (*httptest.Server, *engine.Engine) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	var (
		eng *engine.Engine
		err error
	)
	if dataDir != "" {
		eng, err = engine.Open(dataDir, cfg)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		eng = engine.New(cfg)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, serverOptions{Metrics: reg}))
	t.Cleanup(ts.Close)
	return ts, eng
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func grepMetric(exposition, substr string) string {
	var out strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if strings.Contains(line, substr) {
			out.WriteString(line + "\n")
		}
	}
	return out.String()
}

// TestHandlerPanicRecovered exercises the HTTP panic net directly: the
// instrument middleware must answer a panicking handler's request with a 500
// that still carries X-Query-ID, count it in bedom_http_panics_total, and
// keep serving subsequent requests.
func TestHandlerPanicRecovered(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Metrics: reg})
	t.Cleanup(eng.Close)
	s := &server{
		eng: eng, start: time.Now(), reg: reg,
		httpRequests: reg.CounterVec("bedom_http_requests_total", "t", "route", "code"),
		httpSeconds:  reg.HistogramVec("bedom_http_request_seconds", "t", nil, "route"),
		httpPanics:   reg.Counter("bedom_http_panics_total", "t"),
	}
	calls := 0
	ts := httptest.NewServer(s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("handler bug")
		}
		w.WriteHeader(http.StatusNoContent)
	})))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if resp.Header.Get("X-Query-ID") == "" {
		t.Fatal("panic response lost X-Query-ID")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] != "internal server error" {
		t.Fatalf("body = %v", body)
	}
	if got := s.httpPanics.Value(); got != 1 {
		t.Fatalf("bedom_http_panics_total = %d, want 1", got)
	}

	// The server survived and serves the next request normally.
	resp2, err := http.Get(ts.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("request after panic: %d, want 204", resp2.StatusCode)
	}
}

// TestOverloadSheds503: with the worker wedged and the queue full, /query
// answers 503 with Retry-After, bedom_queries_shed_total increments, and
// /healthz reports overloaded while the queue is full.
func TestOverloadSheds503(t *testing.T) {
	entered := make(chan struct{}, 8)
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release() // also unwedges the worker on any t.Fatal path
	hook := func(stage string) {
		if strings.HasPrefix(stage, "query:") {
			entered <- struct{}{}
			<-block
		}
	}
	ts, eng := faultyServer(t, engine.Config{
		Workers: 1, QueueDepth: 1, QueueWaitBudget: -1, StageHook: hook,
	}, "")
	if _, err := eng.Register("g", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}

	query := func() *http.Response {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"graph":"g","kind":"domset","r":1}`))
		if err != nil {
			t.Error(err)
			return nil
		}
		return resp
	}
	var wg sync.WaitGroup
	wg.Add(2)
	// Query A wedges the worker; query B fills the one queue slot.
	go func() {
		defer wg.Done()
		if r := query(); r != nil {
			r.Body.Close()
		}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query A never reached the worker")
	}
	go func() {
		defer wg.Done()
		if r := query(); r != nil {
			r.Body.Close()
		}
	}()
	waitForCond(t, func() bool {
		state, _ := eng.Health()
		return state == engine.HealthOverloaded
	})

	// Query C is shed.
	resp := query()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed query status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 has no Retry-After")
	}

	// /healthz is the tri-state probe: overloaded while the queue is full.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || health["status"] != engine.HealthOverloaded {
		t.Fatalf("healthz = %d %v, want 503 overloaded", hz.StatusCode, health)
	}

	if m := scrape(t, ts); !strings.Contains(m, "bedom_queries_shed_total 1") {
		t.Fatalf("shed counter missing:\n%s", grepMetric(m, "shed"))
	}

	release()
	wg.Wait()
}

// TestDegradedMutations503 drives the engine read-only via an injected dead
// disk and asserts the HTTP mapping: the mutation that meets the dead disk
// and every mutation and removal after it 503 + Retry-After, queries still
// 200, /healthz 503 "degraded" with a reason, and recovery via
// /admin/checkpoint flips everything back to 200/ok.
func TestDegradedMutations503(t *testing.T) {
	in := fault.NewInjector(nil)
	ts, eng := faultyServer(t, engine.Config{FS: in}, t.TempDir())
	if _, err := eng.Register("g", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	in.Add(fault.Fault{Op: fault.OpSync, Path: "wal-", Err: fault.ErrNoSpace, Sticky: true})

	mutate := func() *http.Response {
		resp, err := http.Post(ts.URL+"/graphs/g/edges", "application/json",
			strings.NewReader(`{"add":[[0,5]]}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	unavailable := func(what string, resp *http.Response) {
		t.Helper()
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: status %d Retry-After %q, want 503 with Retry-After",
				what, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	// The first mutation's WAL append hits the dead disk: it changes
	// nothing and flips degraded mode, so it is as retryable as the
	// mutations the gate rejects after it.
	unavailable("mutation on a dead disk", mutate())
	unavailable("degraded mutation", mutate())
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/g", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	unavailable("degraded removal", resp)
	if _, ok := eng.Info("g"); !ok {
		t.Fatal("graph removed while degraded")
	}

	// Queries still serve.
	q, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"graph":"g","kind":"domset","r":1}`))
	if err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if q.StatusCode != http.StatusOK {
		t.Fatalf("query while degraded: %d, want 200", q.StatusCode)
	}

	// /healthz: 503 degraded with a reason.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	reason, _ := health["reason"].(string)
	if hz.StatusCode != http.StatusServiceUnavailable || health["status"] != engine.HealthDegraded || reason == "" {
		t.Fatalf("healthz while degraded = %d %v", hz.StatusCode, health)
	}

	// Disk heals; an explicit checkpoint is the recovery path.
	in.Heal()
	ck, err := http.Post(ts.URL+"/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	ck.Body.Close()
	if ck.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint after heal: %d", ck.StatusCode)
	}
	resp = mutate()
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation after recovery: %d, want 200", resp.StatusCode)
	}
	hz, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after recovery: %d, want 200", hz.StatusCode)
	}
}

// TestSlowLorisCutOff: the hardened server closes a connection that dribbles
// header bytes past ReadHeaderTimeout instead of holding it open forever.
func TestSlowLorisCutOff(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Metrics: reg})
	t.Cleanup(eng.Close)
	srv := newHTTPServer("", newServer(eng, serverOptions{Metrics: reg}), 150*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dribble the header one byte at a time, far slower than any legitimate
	// client but fast enough to defeat an absolute-timeout-free server.
	fmt.Fprint(conn, "GET /healthz HTTP/1.1\r\n")
	start := time.Now()
	deadline := start.Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := conn.Write([]byte("X")); err != nil {
			// The server cut the dribbler off.
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("slow-loris connection survived 10s against a 150ms header timeout")
}

// TestHealthzOK pins the healthy probe shape (200, status ok).
func TestHealthzOK(t *testing.T) {
	ts, _ := faultyServer(t, engine.Config{}, "")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != engine.HealthOK {
		t.Fatalf("status = %v, want ok", body["status"])
	}
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
