package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bedom/internal/domset"
	"bedom/internal/engine"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/obs"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	// Engine and server share one private registry (never obs.Default, so
	// parallel tests cannot pollute each other's scrapes).
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: 4, Metrics: reg})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, serverOptions{Metrics: reg}))
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

// queryReply decodes a /query body or one /batch entry: the engine's
// response, or the error of a failed entry.
type queryReply struct {
	engine.Response
	Error string `json:"error"`
}

func registerGrid(t *testing.T, ts *httptest.Server, name string, n int) {
	t.Helper()
	var info engine.GraphInfo
	resp := doJSON(t, "POST", ts.URL+"/graphs", map[string]any{"name": name, "family": "grid", "n": n}, &info)
	if resp.StatusCode != http.StatusCreated || info.Name != name || info.N == 0 {
		t.Fatalf("register: status %d info %+v", resp.StatusCode, info)
	}
}

func TestRegisterQueryRoundTrip(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 144)

	var q queryReply
	resp := doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 2}, &q)
	if resp.StatusCode != http.StatusOK || q.Error != "" {
		t.Fatalf("query: status %d error %q", resp.StatusCode, q.Error)
	}
	if q.Size == 0 || len(q.Set) != q.Size || q.LowerBound == 0 || q.Wcol == 0 {
		t.Fatalf("query response %+v", q)
	}
	// A second identical query is a cache hit.
	var q2 queryReply
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 2}, &q2)
	if !q2.CacheHit {
		t.Fatalf("warm query should report cache_hit, got %+v", q2)
	}
	// The result actually dominates the graph.
	g := gen.Families()[0].Generate(144, 1)
	if !domset.Check(g, q.Set, 2) {
		t.Fatal("served set does not dominate the grid")
	}
}

func TestRegisterExplicitEdgesAndEdgeListUpload(t *testing.T) {
	ts := testServer(t)
	var info engine.GraphInfo
	resp := doJSON(t, "POST", ts.URL+"/graphs",
		map[string]any{"name": "path", "n": 3, "edges": [][2]int{{0, 1}, {1, 2}}}, &info)
	if resp.StatusCode != http.StatusCreated || info.M != 2 {
		t.Fatalf("edges register: %d %+v", resp.StatusCode, info)
	}

	// text/plain edge-list upload.
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/graphs?name=uploaded", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", hr.StatusCode)
	}

	// An inline edge-list document is not a graph source: the 400 points
	// at the text/plain upload.
	var e struct {
		Error string `json:"error"`
	}
	resp = doJSON(t, "POST", ts.URL+"/graphs",
		map[string]any{"name": "inline", "edge_list": "3 2\n0 1\n1 2\n"}, &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "text/plain") {
		t.Fatalf("inline edge_list: %d %+v", resp.StatusCode, e)
	}

	var list struct {
		Graphs []engine.GraphInfo `json:"graphs"`
	}
	doJSON(t, "GET", ts.URL+"/graphs", nil, &list)
	if len(list.Graphs) != 2 {
		t.Fatalf("expected 2 graphs, got %+v", list.Graphs)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/graphs/path", nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dr.StatusCode)
	}
}

func TestRegisterValidation(t *testing.T) {
	ts := testServer(t)
	cases := []map[string]any{
		{"name": "g"},                                                       // no source
		{"name": "g", "family": "grid"},                                     // family without n
		{"name": "g", "family": "nope", "n": 10},                            // unknown family
		{"name": "", "family": "grid", "n": 10},                             // empty name
		{"name": "g", "family": "grid", "n": 10, "edges": [][2]int{{0, 1}}}, // two sources
		{"name": "g", "n": -1, "edges": [][2]int{{0, 1}}},                   // negative n
		{"name": "g", "n": 1 << 40, "edges": [][2]int{{0, 1}}},              // absurd n
	}
	for _, c := range cases {
		resp := doJSON(t, "POST", ts.URL+"/graphs", c, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %v: want 400, got %d", c, resp.StatusCode)
		}
	}
	// A malformed text/plain upload is the client's fault too.
	hr, err := http.Post(ts.URL+"/graphs?name=bad", "text/plain", strings.NewReader("not a graph"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload: want 400, got %d", hr.StatusCode)
	}
	// A tiny document declaring an absurd vertex count must be rejected
	// before anything is allocated.  An inline 'edge_list' is not a graph
	// source, so that body is rejected before any parsing.
	hr, err = http.Post(ts.URL+"/graphs?name=huge", "text/plain", strings.NewReader("999999999999 1\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge upload header: want 400, got %d", hr.StatusCode)
	}
	resp := doJSON(t, "POST", ts.URL+"/graphs", map[string]any{"name": "huge", "edge_list": "999999999999 0\n"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge inline header: want 400, got %d", resp.StatusCode)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 64)

	var e struct {
		Error string `json:"error"`
	}
	resp := doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "nope", "kind": "domset", "r": 1}, &e)
	if resp.StatusCode != http.StatusNotFound || e.Error == "" {
		t.Fatalf("unknown graph: %d %+v", resp.StatusCode, e)
	}
	resp = doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "nonsense", "r": 1}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind: %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 0}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad radius: %d", resp.StatusCode)
	}
	// A radius beyond engine.MaxRadius is refused before any substrate is
	// built (for cds, 2r+1 would overflow).
	for _, kind := range []string{"domset", "cover", "cds", "dist-domset", "dist-cds"} {
		e.Error = ""
		resp = doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": kind, "r": 1 << 62}, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "radius") {
			t.Fatalf("%s with r=2^62: want 400 naming the radius, got %d %+v", kind, resp.StatusCode, e)
		}
	}
	// The model is not a request field: each pipeline runs in its own.
	e.Error = ""
	resp = doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "dist-domset", "r": 1, "model": "local"}, &e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"model"`) {
		t.Fatalf("model field: want 400 naming it, got %d %+v", resp.StatusCode, e)
	}
	// A negative timeout and one whose time.Duration overflows are
	// rejected, not read as the server default.
	for _, ms := range []int64{-5, 10_000_000_000_000} {
		e.Error = ""
		resp = doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1, "timeout_ms": ms}, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "timeout_ms") {
			t.Fatalf("timeout_ms %d: want 400 naming timeout_ms, got %d %+v", ms, resp.StatusCode, e)
		}
	}
	// A deadline that expires during a cold build is a 504.
	resp = doJSON(t, "POST", ts.URL+"/graphs", map[string]any{"name": "geo", "family": "geometric", "n": 30000}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register geo: %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "geo", "kind": "domset", "r": 2, "timeout_ms": 1}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timeout_ms 1 on a cold build: want 504, got %d", resp.StatusCode)
	}
	// The connected kinds need a connected graph: two disjoint paths are a
	// 400 for cds and dist-cds alike.
	resp = doJSON(t, "POST", ts.URL+"/graphs",
		map[string]any{"name": "twopaths", "n": 8, "edges": [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}}}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register two paths: %d", resp.StatusCode)
	}
	for _, kind := range []string{"cds", "dist-cds"} {
		resp = doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "twopaths", "kind": kind, "r": 1}, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "connected graph") {
			t.Fatalf("%s on a disconnected graph: want 400 naming connectivity, got %d %+v", kind, resp.StatusCode, e)
		}
	}
	// A radius whose round schedule passes the simulator's round guard is
	// the request's fault, a 422 and not a 500: Algorithm 4 at r = 1000 runs
	// 2000 rounds, and the guard on a 5-vertex path is 100·5 + 1000.
	resp = doJSON(t, "POST", ts.URL+"/graphs",
		map[string]any{"name": "path5", "n": 5, "edges": [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register path5: %d", resp.StatusCode)
	}
	e.Error = ""
	resp = doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "path5", "kind": "dist-domset", "r": 1000}, &e)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(e.Error, "maximum round count") {
		t.Fatalf("round schedule past the guard: want 422, got %d %+v", resp.StatusCode, e)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 100)

	var out struct {
		Results   []queryReply `json:"results"`
		Errors    int          `json:"errors"`
		ElapsedMS float64      `json:"elapsed_ms"`
	}
	batch := map[string]any{"queries": []map[string]any{
		{"graph": "grid", "kind": "domset", "r": 1},
		{"graph": "grid", "kind": "domset", "r": 1, "omit_sets": true},
		{"graph": "grid", "kind": "cover", "r": 1},
		{"graph": "grid", "kind": "dist-domset", "r": 1},
		{"graph": "missing", "kind": "domset", "r": 1},
	}}
	resp := doJSON(t, "POST", ts.URL+"/batch", batch, &out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 5 {
		t.Fatalf("batch: %d %+v", resp.StatusCode, out)
	}
	if out.Errors != 1 || out.Results[4].Error == "" {
		t.Fatalf("batch errors: %+v", out)
	}
	if out.Results[0].Size == 0 || out.Results[0].Set == nil {
		t.Fatalf("batch entry 0: %+v", out.Results[0])
	}
	if out.Results[1].Set != nil || out.Results[1].Size != out.Results[0].Size {
		t.Fatalf("omit_sets entry: %+v", out.Results[1])
	}
	if out.Results[3].Rounds == 0 || out.Results[3].Set == nil || out.Results[3].DomSet != nil {
		t.Fatalf("distributed entry (a dist-domset set ships once, without dom_set): %+v", out.Results[3])
	}
	if out.Results[2].Clusters != nil {
		t.Fatal("clusters must be omitted unless requested")
	}

	// Degenerate batches.
	if resp := doJSON(t, "POST", ts.URL+"/batch", map[string]any{"queries": []any{}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", resp.StatusCode)
	}
}

// TestBatchDistRunsPerEntry: each distributed entry of a /batch is retained
// under "<X-Query-ID>.<i>", i its index in the request, with its own kind
// and radius; a sequential entry retains nothing.
func TestBatchDistRunsPerEntry(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 100)
	resp := doJSON(t, "POST", ts.URL+"/batch", map[string]any{"queries": []map[string]any{
		{"graph": "grid", "kind": "dist-domset", "r": 1, "omit_sets": true},
		{"graph": "grid", "kind": "domset", "r": 1, "omit_sets": true},
		{"graph": "grid", "kind": "dist-domset", "r": 2, "omit_sets": true},
		{"graph": "grid", "kind": "dist-cds", "r": 1, "omit_sets": true},
	}}, nil)
	qid := resp.Header.Get("X-Query-ID")
	if resp.StatusCode != http.StatusOK || qid == "" {
		t.Fatalf("batch: status %d, X-Query-ID %q", resp.StatusCode, qid)
	}
	for i, want := range []struct {
		kind engine.Kind
		r    int
	}{{engine.KindDistributedDominatingSet, 1}, {}, {engine.KindDistributedDominatingSet, 2}, {engine.KindDistributedConnected, 1}} {
		id := fmt.Sprintf("%s.%d", qid, i)
		var rec engine.DistRunRecord
		resp := doJSON(t, "GET", ts.URL+"/debug/dist/runs/"+id, nil, &rec)
		if want.kind == "" {
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s (a sequential entry): status %d, want 404", id, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK || rec.ID != id || rec.Kind != want.kind || rec.R != want.r {
			t.Errorf("%s: status %d, record %s %s r=%d, want %s r=%d",
				id, resp.StatusCode, rec.ID, rec.Kind, rec.R, want.kind, want.r)
		}
	}
	if resp := doJSON(t, "GET", ts.URL+"/debug/dist/runs/"+qid, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("the batch's own ID: status %d, want 404", resp.StatusCode)
	}
}

func TestCoverClustersOptIn(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 36)
	var q queryReply
	resp := doJSON(t, "POST", ts.URL+"/query",
		map[string]any{"graph": "grid", "kind": "cover", "r": 1, "include_clusters": true}, &q)
	if resp.StatusCode != http.StatusOK || q.Error != "" {
		t.Fatalf("cover query: %d %q", resp.StatusCode, q.Error)
	}
	if len(q.Clusters) != q.Size || q.Size == 0 {
		t.Fatalf("expected %d clusters in response, got %d", q.Size, len(q.Clusters))
	}
}

func TestStatsAndHealthz(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 81)
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1}, nil)
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1}, nil)

	var st engine.Stats
	resp := doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	if st.Graphs != 1 || st.Queries < 2 || st.SubstrateBuilds == 0 || st.CacheHits == 0 {
		t.Fatalf("stats %+v", st)
	}

	var hz map[string]any
	resp = doJSON(t, "GET", ts.URL+"/healthz", nil, &hz)
	if resp.StatusCode != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hz)
	}
}

func TestMutationEndpoint(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 100)

	// Warm the cache, then mutate: add two edges (one duplicate), remove
	// one, and grow the graph by a vertex.
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1}, nil)
	var info engine.MutationInfo
	resp := doJSON(t, "POST", ts.URL+"/graphs/grid/edges",
		map[string]any{"add": [][2]int{{0, 5}, {0, 1}, {2, 100}}, "remove": [][2]int{{0, 10}}, "add_vertices": 1}, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d %+v", resp.StatusCode, info)
	}
	if info.EdgesAdded != 2 || info.DuplicateAdds != 1 || info.EdgesRemoved != 1 ||
		info.VerticesAdded != 1 || info.Graph.N != 101 {
		t.Fatalf("mutation info %+v", info)
	}
	if info.Graph.Gen == 0 || info.InvalidatedSubstrates == 0 {
		t.Fatalf("mutation must bump the generation and invalidate substrates: %+v", info)
	}

	// The generation bump is visible in /stats, and a follow-up query is
	// served against the new topology (cold, then warm).
	var st engine.Stats
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Mutations != 1 || len(st.GraphStats) != 1 || st.GraphStats[0].Gen != info.Graph.Gen {
		t.Fatalf("stats after mutation: %+v", st)
	}
	var q queryReply
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1}, &q)
	if q.Error != "" || q.CacheHit {
		t.Fatalf("post-mutation query must rebuild: %+v", q)
	}
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1}, &q)
	if !q.CacheHit {
		t.Fatalf("second post-mutation query must be warm: %+v", q)
	}

	// Failure modes: unknown graph, empty delta, malformed delta.
	resp = doJSON(t, "POST", ts.URL+"/graphs/missing/edges", map[string]any{"add": [][2]int{{0, 1}}}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph mutate: %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/graphs/grid/edges", map[string]any{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty delta: %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/graphs/grid/edges", map[string]any{"add": [][2]int{{0, 9999}}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range delta: %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/graphs/grid/edges", map[string]any{"add_vertices": 1 << 40}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("absurd add_vertices: %d", resp.StatusCode)
	}
	// Wrong-arity edge arrays must be rejected, not zero-filled/truncated.
	for _, bad := range []map[string]any{
		{"add": [][]int{{7}}},
		{"add": [][]int{{1, 2, 3}}},
		{"remove": [][]int{{}}},
	} {
		resp = doJSON(t, "POST", ts.URL+"/graphs/grid/edges", bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed delta %v: want 400, got %d", bad, resp.StatusCode)
		}
	}
	// None of the rejected deltas mutated anything.
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Mutations != 1 {
		t.Fatalf("rejected deltas were counted as mutations: %+v", st)
	}
	// A mutation that loses a race with a concurrent re-registration maps
	// to 409, not a contradictory 404 for a name that still exists.
	if got := statusFor(engine.ErrConflict); got != http.StatusConflict {
		t.Fatalf("ErrConflict must map to 409, got %d", got)
	}
}

func TestStreamingIngest(t *testing.T) {
	ts := testServer(t)
	// A path graph streamed as NDJSON, with one duplicate edge line.
	body := `{"name":"stream","n":5}
[0,1]
[1,2]
[2,3]
[3,4]
[0,1]
`
	resp, err := http.Post(ts.URL+"/graphs", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		engine.GraphInfo
		EdgesIngested int `json:"edges_ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sr.N != 5 || sr.M != 4 || sr.EdgesIngested != 5 {
		t.Fatalf("streaming ingest: status %d %+v", resp.StatusCode, sr)
	}
	// The streamed graph serves queries like any other.
	var q queryReply
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "stream", "kind": "domset", "r": 1}, &q)
	if q.Error != "" || q.Size == 0 {
		t.Fatalf("query on streamed graph: %+v", q)
	}

	// Failure modes: missing name, bad header, bad edge value, self-loop,
	// absurd n.
	for name, bad := range map[string]string{
		"no-name":     `{"n":5}` + "\n[0,1]\n",
		"bad-header":  "[0,1]\n",
		"bad-edge":    `{"name":"x","n":5}` + "\n{\"u\":0}\n",
		"short-edge":  `{"name":"x","n":5}` + "\n[3]\n",
		"triple-edge": `{"name":"x","n":5}` + "\n[1,2,3]\n",
		"self-loop":   `{"name":"x","n":5}` + "\n[2,2]\n",
		"huge-n":      `{"name":"x","n":999999999999}` + "\n",
	} {
		resp, err := http.Post(ts.URL+"/graphs", "application/x-ndjson", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d", name, resp.StatusCode)
		}
	}
}

// TestStreamingIngestChunked streams a grid through a pipe (chunked
// transfer encoding, no Content-Length) — the daemon must consume it
// incrementally and register the full graph.
func TestStreamingIngestChunked(t *testing.T) {
	ts := testServer(t)
	g := gen.Grid(20, 20)
	pr, pw := io.Pipe()
	go func() {
		fmt.Fprintf(pw, "{\"name\":\"chunked\",\"n\":%d}\n", g.N())
		for _, e := range g.Edges() {
			fmt.Fprintf(pw, "[%d,%d]\n", e[0], e[1])
		}
		pw.Close()
	}()
	resp, err := http.Post(ts.URL+"/graphs", "application/x-ndjson", pr)
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		engine.GraphInfo
		EdgesIngested int `json:"edges_ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sr.N != g.N() || sr.M != g.M() {
		t.Fatalf("chunked ingest: status %d %+v (want n=%d m=%d)", resp.StatusCode, sr, g.N(), g.M())
	}
}

func TestMethodDiscipline(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct{ method, path string }{
		{"GET", "/query"},
		{"GET", "/batch"},
		{"POST", "/stats"},
		{"DELETE", "/graphs"},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d", tc.method, tc.path, resp.StatusCode)
		}
	}
}

func TestConcurrentQueriesSingleBuild(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 400)

	const parallel = 16
	type answer struct {
		set string
		err error
	}
	answers := make(chan answer, parallel)
	for i := 0; i < parallel; i++ {
		go func() {
			body := strings.NewReader(`{"graph":"grid","kind":"domset","r":2}`)
			resp, err := http.Post(ts.URL+"/query", "application/json", body)
			if err != nil {
				answers <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			// The bodies differ in cache_hit and elapsed_ms only.
			set, _, _ := strings.Cut(string(out), `,"cache_hit"`)
			answers <- answer{set: set, err: err}
		}()
	}
	// Every response writes the one cached set, encoded once for all.
	var first string
	for i := 0; i < parallel; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatal(a.err)
		}
		if i == 0 {
			first = a.set
		} else if a.set != first {
			t.Fatalf("concurrent answers differ:\n%s\n%s", a.set, first)
		}
	}
	var st engine.Stats
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.SubstrateBuilds != 3 { // order(2) + wreach(2,4) + paper result, built once each
		t.Fatalf("%d substrate builds for identical concurrent queries, want 3 (stats %+v)", st.SubstrateBuilds, st)
	}
}

// --- NDJSON streaming-ingest error paths ---------------------------------

// postNDJSON posts body as an NDJSON registration stream.
func postNDJSON(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/graphs", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// assertNotRegistered fails if name shows up in the graph listing: a stream
// that errors mid-way must leave no partial registration behind.
func assertNotRegistered(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	var list struct {
		Graphs []engine.GraphInfo `json:"graphs"`
	}
	doJSON(t, "GET", ts.URL+"/graphs", nil, &list)
	for _, gi := range list.Graphs {
		if gi.Name == name {
			t.Fatalf("graph %q registered despite the stream failing", name)
		}
	}
}

// TestNDJSONStreamErrors covers the mid-stream failure modes of streaming
// ingest: each must return 400 with a line-identifying message and register
// nothing — the registration is atomic, all edges or none.
func TestNDJSONStreamErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name    string
		body    string
		wantMsg string
	}{
		{"malformed record mid-stream", "{\"name\":\"bad\",\"n\":6}\n[0,1]\n[1,2\n[2,3]\n", "edge 2"},
		{"wrong arity short", "{\"name\":\"bad\",\"n\":6}\n[0,1]\n[2]\n", "edge 2"},
		{"wrong arity long", "{\"name\":\"bad\",\"n\":6}\n[0,1,9]\n", "edge 1"},
		{"oversized number", "{\"name\":\"bad\",\"n\":6}\n[0,1]\n[1,1e999]\n", "edge 2"},
		{"out of range endpoint", "{\"name\":\"bad\",\"n\":6}\n[0,1]\n[1,6]\n", "edge 2"},
		{"self loop", "{\"name\":\"bad\",\"n\":6}\n[3,3]\n", "edge 1"},
		{"missing header", "[0,1]\n[1,2]\n", "header"},
		{"header without name", "{\"n\":6}\n[0,1]\n", "name"},
		{"negative n", "{\"name\":\"bad\",\"n\":-1}\n", "'n' must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postNDJSON(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantMsg)
			}
			assertNotRegistered(t, ts, "bad")
		})
	}
	// A failed stream must not poison later ingestion of the same name.
	resp := postNDJSON(t, ts, "{\"name\":\"bad\",\"n\":4}\n[0,1]\n[1,2]\n")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("clean retry after failures: status %d", resp.StatusCode)
	}
}

// errAfterReader yields its prefix, then fails like a connection dropped mid
// body — the truncated-body case of streaming ingest.
type errAfterReader struct {
	data []byte
	pos  int
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("simulated mid-stream connection loss")
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

func TestNDJSONTruncatedBody(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	t.Cleanup(eng.Close)
	h := newServer(eng, serverOptions{Metrics: obs.NewRegistry()})

	body := &errAfterReader{data: []byte("{\"name\":\"trunc\",\"n\":8}\n[0,1]\n[1,2]\n[2,")}
	req := httptest.NewRequest("POST", "/graphs", body)
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", rec.Code)
	}
	if _, ok := eng.Info("trunc"); ok {
		t.Fatal("truncated stream left a partial registration")
	}
}

// --- Persistence over the HTTP surface -----------------------------------

// persistentServer wires a persistent engine into the handler tree.
func persistentServer(t *testing.T, dir string) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.Open(dir, engine.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close) // Close is idempotent; tests may also close early
	ts := httptest.NewServer(newServer(eng, serverOptions{Metrics: obs.NewRegistry()}))
	t.Cleanup(ts.Close)
	return ts, eng
}

func TestCheckpointEndpointWithoutDataDir(t *testing.T) {
	ts := testServer(t)
	resp := doJSON(t, "POST", ts.URL+"/admin/checkpoint", nil, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint without -data-dir: status %d, want 409", resp.StatusCode)
	}
}

// TestPersistenceRestartRoundTrip is the HTTP-level version of the crash
// recovery contract: register, mutate, checkpoint via the admin endpoint,
// kill the daemon (no final checkpoint), restart on the same data dir, and
// demand the same query answer and the same /stats generation.
func TestPersistenceRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ts, eng := persistentServer(t, dir)
	registerGrid(t, ts, "grid", 144)
	var mut engine.MutationInfo
	doJSON(t, "POST", ts.URL+"/graphs/grid/edges",
		map[string]any{"add": [][]int{{0, 5}, {2, 9}}, "remove": [][]int{{0, 1}}, "add_vertices": 1}, &mut)
	if mut.EdgesAdded != 2 || mut.EdgesRemoved != 1 {
		t.Fatalf("mutation %+v", mut)
	}
	var ck engine.CheckpointInfo
	if resp := doJSON(t, "POST", ts.URL+"/admin/checkpoint", nil, &ck); resp.StatusCode != http.StatusOK || ck.Graphs != 1 {
		t.Fatalf("admin checkpoint: %d %+v", resp.StatusCode, ck)
	}
	// One more delta AFTER the checkpoint so recovery exercises replay too.
	doJSON(t, "POST", ts.URL+"/graphs/grid/edges", map[string]any{"add": [][]int{{7, 30}}}, &mut)

	var before queryReply
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 2}, &before)
	var stBefore engine.Stats
	doJSON(t, "GET", ts.URL+"/stats", nil, &stBefore)
	if stBefore.Persist == nil || stBefore.Persist.WALRecords == 0 {
		t.Fatalf("persist stats missing before restart: %+v", stBefore.Persist)
	}
	ts.Close()
	eng.Close() // seals the WAL; recovery still replays the last record

	ts2, _ := persistentServer(t, dir)
	var after queryReply
	doJSON(t, "POST", ts2.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 2}, &after)
	if after.Error != "" || after.Size != before.Size || fmt.Sprint(after.Set) != fmt.Sprint(before.Set) ||
		after.Wcol != before.Wcol || after.LowerBound != before.LowerBound {
		t.Fatalf("restarted answers diverge:\nbefore %+v\nafter  %+v", before, after)
	}
	var stAfter engine.Stats
	doJSON(t, "GET", ts2.URL+"/stats", nil, &stAfter)
	if len(stAfter.GraphStats) != 1 || len(stBefore.GraphStats) != 1 ||
		stAfter.GraphStats[0].Gen != stBefore.GraphStats[0].Gen ||
		stAfter.GraphStats[0].N != stBefore.GraphStats[0].N ||
		stAfter.GraphStats[0].M != stBefore.GraphStats[0].M {
		t.Fatalf("generations diverge: before %+v after %+v", stBefore.GraphStats, stAfter.GraphStats)
	}
	if stAfter.Persist.Recovered.Graphs != 1 || stAfter.Persist.ReplayedRecords != 1 {
		t.Fatalf("recovery stats %+v", stAfter.Persist)
	}
}

func TestQuerySolverSelection(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 144)
	g := gen.Families()[0].Generate(144, 1)

	sizes := make(map[string]int)
	for _, name := range []string{"paper", "kubsv", "dvorak", "greedy", "order-greedy"} {
		var q queryReply
		resp := doJSON(t, "POST", ts.URL+"/query",
			map[string]any{"graph": "grid", "kind": "domset", "r": 2, "solver": name}, &q)
		if resp.StatusCode != http.StatusOK || q.Error != "" {
			t.Fatalf("%s: status %d error %q", name, resp.StatusCode, q.Error)
		}
		if q.Solver != name {
			t.Fatalf("%s: response echoes solver %q", name, q.Solver)
		}
		if !domset.Check(g, q.Set, 2) {
			t.Fatalf("%s: served set does not dominate the grid", name)
		}
		sizes[name] = q.Size
	}
	if sizes["greedy"] == sizes["paper"] && sizes["kubsv"] == sizes["paper"] {
		t.Fatalf("solver field appears to be ignored: all sizes %v", sizes)
	}
	// Default spelling resolves to paper and shares its cache entry.
	var def queryReply
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 2}, &def)
	if def.Solver != "paper" || !def.CacheHit || def.Size != sizes["paper"] {
		t.Fatalf("default query %+v does not alias the paper entry", def)
	}
	// Distributed kinds accept distributed strategies only.
	var dq queryReply
	resp := doJSON(t, "POST", ts.URL+"/query",
		map[string]any{"graph": "grid", "kind": "dist-domset", "r": 1, "solver": "kubsv"}, &dq)
	if resp.StatusCode != http.StatusOK || dq.Rounds != 7 {
		t.Fatalf("kubsv dist-domset: status %d rounds %d", resp.StatusCode, dq.Rounds)
	}

	// Per-solver counters surface in /stats.
	var st engine.Stats
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	counts := make(map[string]uint64)
	for _, sc := range st.PerSolver {
		counts[sc.Solver] = sc.Count
	}
	if counts["paper"] != 2 || counts["kubsv"] != 2 || counts["dvorak"] != 1 || counts["greedy"] != 1 || counts["order-greedy"] != 1 {
		t.Fatalf("per-solver counters %v", counts)
	}
}

func TestQueryUnknownSolver(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 64)
	var e map[string]string
	resp := doJSON(t, "POST", ts.URL+"/query",
		map[string]any{"graph": "grid", "kind": "domset", "r": 1, "solver": "simulated-annealing"}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown solver: status %d, want 400", resp.StatusCode)
	}
	for _, name := range []string{"paper", "kubsv", "dvorak", "greedy", "order-greedy"} {
		if !strings.Contains(e["error"], name) {
			t.Fatalf("400 body must list registered solver %q: %q", name, e["error"])
		}
	}
	// A non-distributed solver on a distributed kind is a 400, too.
	resp = doJSON(t, "POST", ts.URL+"/query",
		map[string]any{"graph": "grid", "kind": "dist-domset", "r": 1, "solver": "dvorak"}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dvorak on dist-domset: status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 81)
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1}, nil)
	doJSON(t, "POST", ts.URL+"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("metrics Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`bedom_queries_total{kind="domset",solver="paper"} 2`,
		"# TYPE bedom_query_seconds histogram",
		`bedom_query_seconds_count{kind="domset",solver="paper"} 2`,
		"# TYPE bedom_cache_hits_total counter",
		"# TYPE bedom_cache_misses_total counter",
		`bedom_substrate_build_seconds_count{stage="order"} 1`,
		"bedom_graphs 1",
		`bedom_http_requests_total{route="POST /query",code="200"} 2`,
		"# TYPE bedom_http_request_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The repeated domset query must hit the substrate cache; the warm-up
	// query's builds must all be misses, never hits.
	if strings.Contains(body, "\nbedom_cache_hits_total 0\n") {
		t.Error("metrics exposition reports zero cache hits after a repeated query")
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

func TestObservabilityHeaders(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/stats", "/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s: Cache-Control = %q, want no-store", path, cc)
		}
		if qid := resp.Header.Get("X-Query-ID"); !strings.HasPrefix(qid, "q-") {
			t.Errorf("%s: X-Query-ID = %q, want q- prefix", path, qid)
		}
	}
	// Distinct requests get distinct query ids.
	r1, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if a, b := r1.Header.Get("X-Query-ID"), r2.Header.Get("X-Query-ID"); a == b {
		t.Fatalf("query ids not unique: %q", a)
	}
}

// TestDistRunDebugEndpoints: a distributed query leaves a retrievable round
// profile at /debug/dist/runs/{X-Query-ID}, whose per-round sums match the
// phase statistics, and which renders as a Perfetto trace-event document.
func TestDistRunDebugEndpoints(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 64)

	var q queryReply
	resp := doJSON(t, "POST", ts.URL+"/query",
		map[string]any{"graph": "grid", "kind": "dist-domset", "r": 1}, &q)
	if resp.StatusCode != http.StatusOK || q.Rounds == 0 {
		t.Fatalf("dist query: status %d rounds %d", resp.StatusCode, q.Rounds)
	}
	if q.DomSet != nil {
		t.Fatal("dist-domset body repeats its set as dom_set")
	}
	qid := resp.Header.Get("X-Query-ID")
	if qid == "" {
		t.Fatal("dist query response carried no X-Query-ID")
	}

	// List: exactly the one distributed run, keyed by the query ID, with
	// summary totals equal to the response's simulator cost.
	var list struct {
		Runs []engine.DistRunSummary `json:"runs"`
	}
	if resp := doJSON(t, "GET", ts.URL+"/debug/dist/runs", nil, &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != qid {
		t.Fatalf("runs %+v, want one entry keyed %q", list.Runs, qid)
	}
	if list.Runs[0].Rounds != q.Rounds || list.Runs[0].Messages != q.Messages {
		t.Fatalf("summary %+v diverges from response (rounds=%d messages=%d)",
			list.Runs[0], q.Rounds, q.Messages)
	}

	// Detail: per-phase round profiles whose per-round message/word sums
	// equal each phase's aggregate statistics.
	var rec engine.DistRunRecord
	if resp := doJSON(t, "GET", ts.URL+"/debug/dist/runs/"+qid, nil, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("detail: status %d", resp.StatusCode)
	}
	if rec.ID != qid || len(rec.Profiles) == 0 {
		t.Fatalf("record id=%q with %d profiles", rec.ID, len(rec.Profiles))
	}
	for _, rp := range rec.Profiles {
		var m, w int64
		for _, rd := range rp.Rounds {
			m += rd.Messages
			w += rd.Words
		}
		if m != rp.Stats.Messages || w != rp.Stats.Words {
			t.Fatalf("phase %q: per-round sums (m=%d w=%d) diverge from %+v",
				rp.Phase, m, w, rp.Stats)
		}
	}

	// Perfetto rendering: trace-event content type, parseable document with
	// one event per round plus the per-phase slices and metadata.
	pr, err := http.Get(ts.URL + "/debug/dist/runs/" + qid + "?format=perfetto")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("perfetto: status %d", pr.StatusCode)
	}
	if ct := pr.Header.Get("Content-Type"); ct != obs.TraceEventsContentType {
		t.Fatalf("perfetto Content-Type = %q, want %q", ct, obs.TraceEventsContentType)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&doc); err != nil {
		t.Fatalf("perfetto document does not parse: %v", err)
	}
	if want := rec.Stats.Rounds + 2*len(rec.Profiles); len(doc.TraceEvents) != want {
		t.Fatalf("perfetto document has %d events, want %d", len(doc.TraceEvents), want)
	}

	// Unknown IDs 404; unknown formats 400.
	if resp := doJSON(t, "GET", ts.URL+"/debug/dist/runs/nope", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/debug/dist/runs/"+qid+"?format=pprof", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

// TestUnknownBodyFieldsRejected: a query, batch or mutation body with a
// field its route does not declare is a 400 naming the field, and a
// rejected mutation leaves the graph's n, m and generation unchanged.
func TestUnknownBodyFieldsRejected(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 16)
	var before engine.Stats
	doJSON(t, "GET", ts.URL+"/stats", nil, &before)

	for _, tc := range []struct {
		path  string
		body  map[string]any
		field string
	}{
		{"/query", map[string]any{"graph": "grid", "kind": "domset", "r": 1, "solvr": "greedy"}, "solvr"},
		{"/batch", map[string]any{"queries": []map[string]any{
			{"graph": "grid", "kind": "domset", "r": 1},
			{"graph": "grid", "kind": "dist-domset", "r": 1, "model": "congest_bc"},
		}}, "model"},
		{"/batch", map[string]any{"queries": []map[string]any{{"graph": "grid", "kind": "domset", "r": 1}}, "omit_sets": true}, "omit_sets"},
		// The simulator takes no options: the radius and the graph fix the
		// round schedule, the deployment's -substrate-workers the workers.
		{"/query", map[string]any{"graph": "grid", "kind": "dist-domset", "r": 1, "workers": 1}, "workers"},
		{"/query", map[string]any{"graph": "grid", "kind": "dist-domset", "r": 1, "max_rounds": 10}, "max_rounds"},
		{"/query", map[string]any{"graph": "grid", "kind": "dist-domset", "r": 1, "refined_order": true}, "refined_order"},
		{"/batch", map[string]any{"queries": []map[string]any{{"graph": "grid", "kind": "dist-cds", "r": 1, "workers": 1}}}, "workers"},
		{"/batch", map[string]any{"queries": []map[string]any{{"graph": "grid", "kind": "dist-domset", "r": 1, "max_rounds": 10}}}, "max_rounds"},
		{"/batch", map[string]any{"queries": []map[string]any{{"graph": "grid", "kind": "dist-domset", "r": 1, "refined_order": true}}}, "refined_order"},
		{"/graphs/grid/edges", map[string]any{"add": [][2]int{{0, 3}}, "remov": [][2]int{{0, 1}}}, "remov"},
	} {
		var e struct {
			Error string `json:"error"`
		}
		resp := doJSON(t, "POST", ts.URL+tc.path, tc.body, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"`+tc.field+`"`) {
			t.Errorf("%s %v: want 400 naming %q, got %d %+v", tc.path, tc.body, tc.field, resp.StatusCode, e)
		}
	}

	var after engine.Stats
	doJSON(t, "GET", ts.URL+"/stats", nil, &after)
	if after.Mutations != 0 || after.Queries != before.Queries {
		t.Fatalf("rejected bodies reached the engine: %+v", after)
	}
	b, a := before.GraphStats[0], after.GraphStats[0]
	if a.N != b.N || a.M != b.M || a.Gen != b.Gen {
		t.Fatalf("rejected mutation changed the graph: n=%d m=%d gen=%d, was n=%d m=%d gen=%d",
			a.N, a.M, a.Gen, b.N, b.M, b.Gen)
	}
}

// TestUnknownRegistrationFieldsRejected: a registration body or an NDJSON
// header carrying a field it does not declare is a 400 naming the field,
// and the registry is unchanged after each.
func TestUnknownRegistrationFieldsRejected(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 16)
	listing := func() []engine.GraphInfo {
		var list struct {
			Graphs []engine.GraphInfo `json:"graphs"`
		}
		doJSON(t, "GET", ts.URL+"/graphs", nil, &list)
		return list.Graphs
	}
	before := listing()
	for _, tc := range []struct {
		body  map[string]any
		field string
	}{
		{map[string]any{"name": "b", "family": "geometric", "n": 200, "sed": 7}, "sed"},
		{map[string]any{"name": "b", "n": 3, "edges": [][2]int{{0, 1}}, "largest_componet": true}, "largest_componet"},
		{map[string]any{"name": "grid", "family": "grid", "n": 64, "seed": 1, "replace": true}, "replace"},
	} {
		var e struct {
			Error string `json:"error"`
		}
		resp := doJSON(t, "POST", ts.URL+"/graphs", tc.body, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"`+tc.field+`"`) {
			t.Errorf("%v: want 400 naming %q, got %d %+v", tc.body, tc.field, resp.StatusCode, e)
		}
		if after := listing(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%v changed the registry: %+v, was %+v", tc.body, after, before)
		}
	}
	for _, tc := range []struct{ header, field string }{
		{`{"name":"c","n":3,"nn":9}`, "nn"},
		{`{"name":"grid","n":3,"replace":true}`, "replace"},
	} {
		resp := postNDJSON(t, ts, tc.header+"\n[0,1]\n[1,2]\n")
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"`+tc.field+`"`) {
			t.Errorf("NDJSON header %s: want 400 naming %q, got %d %+v", tc.header, tc.field, resp.StatusCode, e)
		}
		if after := listing(); !reflect.DeepEqual(after, before) {
			t.Fatalf("NDJSON header %s changed the registry: %+v, was %+v", tc.header, after, before)
		}
	}
}

// TestDistRunModel: the retained round profile of a distributed query names
// the model of its pipeline on every phase — CONGEST_BC for the paper
// dist-domset and for dist-cds, LOCAL for kubsv.
func TestDistRunModel(t *testing.T) {
	ts := testServer(t)
	registerGrid(t, ts, "grid", 64)
	for _, tc := range []struct {
		kind, solver, want string
	}{
		{"dist-domset", "", "CONGEST_BC"},
		{"dist-domset", "paper", "CONGEST_BC"},
		{"dist-domset", "kubsv", "LOCAL"},
		{"dist-cds", "", "CONGEST_BC"},
	} {
		resp := doJSON(t, "POST", ts.URL+"/query",
			map[string]any{"graph": "grid", "kind": tc.kind, "r": 1, "solver": tc.solver, "omit_sets": true}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %q: status %d", tc.kind, tc.solver, resp.StatusCode)
		}
		var rec engine.DistRunRecord
		doJSON(t, "GET", ts.URL+"/debug/dist/runs/"+resp.Header.Get("X-Query-ID"), nil, &rec)
		if len(rec.Profiles) == 0 {
			t.Fatalf("%s %q: no retained profiles", tc.kind, tc.solver)
		}
		for _, rp := range rec.Profiles {
			if rp.Model != tc.want {
				t.Errorf("%s %q: phase %s ran in %s, want %s", tc.kind, tc.solver, rp.Phase, rp.Model, tc.want)
			}
		}
	}
}
