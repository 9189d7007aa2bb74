package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"bedom/internal/engine"
	"bedom/internal/gen"
	"bedom/internal/obs"
)

// fuzzMaxVertices bounds the vertex counts a fuzz input may declare.  The
// daemon admits up to maxGraphVertices (2²⁵) by design; allocating that for
// one input would measure memory, not decoding.
const fuzzMaxVertices = 4096

// fuzzServer returns a fresh engine and handler, so no fuzz input can see
// another's graphs.
func fuzzServer(t *testing.T) (*engine.Engine, http.Handler) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Workers: 2, Metrics: reg})
	t.Cleanup(eng.Close)
	return eng, newServer(eng, serverOptions{Metrics: reg})
}

// fuzzPost sends body to route in-process and fails on a 500, which is
// also what a recovered handler panic answers.
func fuzzPost(t *testing.T, h http.Handler, route, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", route, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("POST %s %q: 500 %s", route, body, rec.Body)
	}
	return rec
}

// FuzzNDJSONIngest sends its input to the streaming ingest.  A 201 must
// register a valid graph with the header's n and one edge per distinct
// decoded pair.
func FuzzNDJSONIngest(f *testing.F) {
	f.Add([]byte("{\"name\":\"ndj\",\"n\":6}\n[0,1]\n[1,2]\n[2,3]\n[3,4]\n[4,5]\n[0,1]\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		var hdr streamHeader
		hdrErr := dec.Decode(&hdr)
		if hdrErr == nil && hdr.N > fuzzMaxVertices {
			t.Skip("declares more vertices than a fuzz input may allocate")
		}
		eng, h := fuzzServer(t)
		rec := fuzzPost(t, h, "/graphs", "application/x-ndjson", body)
		if rec.Code != http.StatusCreated {
			return
		}
		if hdrErr != nil {
			t.Fatalf("ingest accepted a body whose header does not decode: %v", hdrErr)
		}
		distinct := map[[2]int]bool{}
		for {
			var e []int
			if err := dec.Decode(&e); errors.Is(err, io.EOF) {
				break
			} else if err != nil || len(e) != 2 {
				t.Fatalf("ingest accepted a body with a bad edge value %v: %v", e, err)
			}
			distinct[[2]int{min(e[0], e[1]), max(e[0], e[1])}] = true
		}
		var resp streamResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		g, ok := eng.Lookup(hdr.Name)
		if !ok {
			t.Fatalf("201 for %q, but the graph is not registered", hdr.Name)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.N() != hdr.N || g.M() != len(distinct) || resp.N != g.N() || resp.M != g.M() {
			t.Fatalf("registered n=%d m=%d (response n=%d m=%d), want n=%d m=%d",
				g.N(), g.M(), resp.N, resp.M, hdr.N, len(distinct))
		}
	})
}

// FuzzRequestBodies sends JSON bodies to the routes that decode them, with
// a 6×6 grid registered as "grid".
func FuzzRequestBodies(f *testing.F) {
	routes := []string{"/graphs", "/graphs/grid/edges", "/query", "/batch"}
	for route, bodies := range [][]string{
		{`{"name":"grid","family":"grid","n":1024}`},
		{`{"add":[[0,5],[2,9]],"remove":[[0,1]],"add_vertices":2}`, `{"add":[[7,30]]}`},
		{
			`{"graph":"grid","kind":"domset","r":2}`,
			`{"graph":"grid","kind":"domset","r":2,"solver":"kubsv","omit_sets":true}`,
			`{"graph":"grid","kind":"domset","r":1,"solver":"nope"}`,
			`{"graph":"grid","kind":"dist-domset","r":1,"omit_sets":true}`,
			`{"graph":"grid","kind":"dist-domset","r":1,"model":"congest"}`,
			`{"graph":"grid","kind":"dist-domset","r":1,"model":"local"}`,
		},
		{`{"queries":[{"graph":"grid","kind":"domset","r":1},{"graph":"grid","kind":"cover","r":1,"omit_sets":true},{"graph":"grid","kind":"dist-domset","r":1,"omit_sets":true}]}`},
	} {
		for _, body := range bodies {
			f.Add(uint8(route), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		// Decoded the way the handlers decode it: the first JSON value.
		var sizes struct {
			N           int    `json:"n"`
			AddVertices int    `json:"add_vertices"`
			EdgeList    string `json:"edge_list"`
		}
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&sizes)
		if max(sizes.N, sizes.AddVertices, edgeListVertices(sizes.EdgeList)) > fuzzMaxVertices {
			t.Skip("declares more vertices than a fuzz input may allocate")
		}
		eng, h := fuzzServer(t)
		if _, err := eng.Register("grid", gen.Grid(6, 6)); err != nil {
			t.Fatal(err)
		}
		fuzzPost(t, h, routes[int(route)%len(routes)], "application/json", body)
	})
}

// edgeListVertices returns the vertex count an edge-list document's header
// declares (0 when it has none).
func edgeListVertices(doc string) int {
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		n, _ := strconv.Atoi(strings.Fields(line)[0])
		return n
	}
	return 0
}
