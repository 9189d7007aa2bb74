package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/bodies.golden from the running code")

// goldenGraph is the one graph the golden bodies query: its name needs
// escaping in JSON (a quote, a backslash, U+2028) and carries bytes that
// HTML escaping would rewrite (<, &, >), which the daemon leaves alone.
const goldenGraph = "g<&>\"\\é\u2028"

// elapsedMS matches every elapsed_ms value, the only field whose bytes
// differ between two runs.
var elapsedMS = regexp.MustCompile(`"elapsed_ms":[^,}]+`)

// goldenQueries lists every query kind and sequential solver, each at r = 1
// and r = 2, without omit_sets.
func goldenQueries() []map[string]any {
	var qs []map[string]any
	for _, r := range []int{1, 2} {
		for _, s := range []string{"paper", "kubsv", "dvorak", "greedy", "order-greedy"} {
			qs = append(qs, map[string]any{"kind": "domset", "r": r, "solver": s})
		}
		qs = append(qs,
			map[string]any{"kind": "cds", "r": r},
			map[string]any{"kind": "cover", "r": r},
			map[string]any{"kind": "cover", "r": r, "include_clusters": true},
			map[string]any{"kind": "dist-domset", "r": r, "solver": "paper"},
			map[string]any{"kind": "dist-domset", "r": r, "solver": "kubsv"},
			map[string]any{"kind": "dist-cds", "r": r},
		)
	}
	return qs
}

// TestResponseBodiesGolden pins the bytes of every /query and /batch body
// shape, elapsed_ms aside: each kind and sequential solver, with and
// without omit_sets, and a batch of all of them plus a failing entry.  The
// queries run one at a time on a fresh daemon, and the batch runs after
// them, so every cache_hit is determined.  Run with -update to rewrite the
// golden file after a deliberate change of the wire format.
func TestResponseBodiesGolden(t *testing.T) {
	ts := testServer(t)
	if resp := doJSON(t, "POST", ts.URL+"/graphs", map[string]any{"name": goldenGraph, "family": "grid", "n": 25}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	var got bytes.Buffer
	post := func(route string, body any) {
		req, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "POST %s %s\n%d %s\n", route, req, resp.StatusCode, resp.Header.Get("Content-Type"))
		got.Write(elapsedMS.ReplaceAll(out, []byte(`"elapsed_ms":0`)))
	}
	var batch []map[string]any
	for _, q := range goldenQueries() {
		for _, omit := range []bool{false, true} {
			q := maps.Clone(q)
			q["graph"] = goldenGraph
			if omit {
				q["omit_sets"] = true
			}
			post("/query", q)
			batch = append(batch, q)
		}
	}
	batch = append(batch, map[string]any{"graph": "missing\"", "kind": "domset", "r": 1})
	post("/batch", map[string]any{"queries": batch})

	const path = "testdata/bodies.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\ngot  %s\nwant %s", path, i+1, g, w)
		}
	}
}
