package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"time"

	"bedom/internal/connect"
	"bedom/internal/domset"
	"bedom/internal/engine"
	"bedom/internal/graph"
)

// recorder collects one client's operations in a loop.  Latencies count
// from the start of the timed window on (operations before it warm the
// daemon and the machine); every answer is kept for the checks that run
// after the loop.
type recorder struct {
	from       time.Time // start of the timed window
	queryMS    []float64 // client latency of each answered query
	keyMS      map[int][]float64
	overheadMS []float64 // request round trip minus the engine's elapsed_ms
	elapsedMS  []float64 // the engine's elapsed_ms of each answered query
	respBytes  int64
	mutateMS   []float64
	checkMS    []float64 // POST /admin/checkpoint latency
	readyMS    []float64 // relaunch to ready
	attempted  int
	failed     int
	errs       []string

	// Repeatable keys (no mutations): the digest of the first answer, the
	// number of answers and the first answer itself.
	digest map[int]uint32
	count  map[int]int
	first  map[int][]byte
	// answers lists the answers computed on a mutated graph.
	answers []answer
}

// answer is one kept query answer and the graph state it was computed on:
// the input graph plus the mutator's live edges.
type answer struct {
	key  int
	live [][2]int
	body []byte
	n, m int // graph size read after the answer (-1: not read)
}

func newRecorder(from time.Time) *recorder {
	return &recorder{
		from:   from,
		keyMS:  make(map[int][]float64),
		digest: make(map[int]uint32),
		count:  make(map[int]int),
		first:  make(map[int][]byte),
	}
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// query sends q and records its latency from start (the send, or for a
// query that waited out a restart, the relaunch).  It returns the body of a
// successful answer, valid until the client's next query.
func (r *recorder) query(t target, client, key int, q query, start time.Time) ([]byte, bool) {
	r.attempted++
	sent := time.Now()
	rep, err := t.query(client, q)
	done := time.Now()
	if err != nil {
		r.fail("query %s: %v", q, err)
		return nil, false
	}
	if rep.status != 200 {
		r.fail("query %s: status %d: %s", q, rep.status, truncate(rep.body))
		return nil, false
	}
	if !done.Before(r.from) {
		lat := ms(done.Sub(start))
		r.queryMS = append(r.queryMS, lat)
		r.keyMS[key] = append(r.keyMS[key], lat)
	}
	r.overheadMS = append(r.overheadMS, ms(done.Sub(sent))-rep.elapsedMS)
	r.elapsedMS = append(r.elapsedMS, rep.elapsedMS)
	r.respBytes += int64(len(rep.body))
	return rep.body, true
}

func (r *recorder) mutate(t target, g string, d graph.Delta) bool {
	r.attempted++
	start := time.Now()
	rep, err := t.mutate(g, d)
	if err != nil || rep.status != 200 {
		r.fail("mutate %s: %v %d %s", g, err, rep.status, truncate(rep.body))
		return false
	}
	r.timed(&r.mutateMS, start)
	return true
}

func (r *recorder) checkpoint(t target) {
	r.attempted++
	start := time.Now()
	if err := t.checkpoint(); err != nil {
		r.fail("checkpoint: %v", err)
		return
	}
	r.timed(&r.checkMS, start)
}

// timed records the milliseconds since start into samples when the
// operation ended inside the timed window.
func (r *recorder) timed(samples *[]float64, start time.Time) {
	if now := time.Now(); !now.Before(r.from) {
		*samples = append(*samples, ms(now.Sub(start)))
	}
}

// repeatable records an answer to a key whose graph never changes: every
// answer must equal the first one.
func (r *recorder) repeatable(key int, body []byte) {
	d := answerDigest(body)
	if n := r.count[key]; n == 0 {
		r.digest[key] = d
		r.first[key] = bytes.Clone(body)
	} else if r.digest[key] != d {
		r.fail("key %d answered differently on repeat %d", key, n)
	}
	r.count[key]++
}

// keep records an answer computed on the input graph plus live edges.
func (r *recorder) keep(key int, live [][2]int, body []byte, n, m int) {
	r.answers = append(r.answers, answer{key: key, live: live, body: bytes.Clone(body), n: n, m: m})
}

// answerDigest hashes an answer without its cache_hit and elapsed_ms fields,
// which legitimately differ between repeats.
func answerDigest(body []byte) uint32 {
	if i := bytes.LastIndex(body, []byte(`,"cache_hit":`)); i >= 0 {
		body = body[:i]
	}
	return crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}

// merge folds recorders (of clients, or of daemons set up the same way) into
// one.  Answers to a repeatable key must agree across all of them.
func merge(recs []*recorder) *recorder {
	out := recs[0]
	for _, r := range recs[1:] {
		out.queryMS = append(out.queryMS, r.queryMS...)
		for k, v := range r.keyMS {
			out.keyMS[k] = append(out.keyMS[k], v...)
		}
		out.overheadMS = append(out.overheadMS, r.overheadMS...)
		out.elapsedMS = append(out.elapsedMS, r.elapsedMS...)
		out.respBytes += r.respBytes
		out.mutateMS = append(out.mutateMS, r.mutateMS...)
		out.checkMS = append(out.checkMS, r.checkMS...)
		out.readyMS = append(out.readyMS, r.readyMS...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
		out.answers = append(out.answers, r.answers...)
		for key, n := range r.count {
			if out.count[key] == 0 {
				out.digest[key] = r.digest[key]
				out.first[key] = r.first[key]
			} else if out.digest[key] != r.digest[key] {
				out.fail("key %d answered differently by two clients", key)
			}
			out.count[key] += n
		}
	}
	return out
}

// reply is the parsed part of a query answer the checks read.
type reply struct {
	Kind           string `json:"kind"`
	R              int    `json:"r"`
	Set            []int  `json:"set"`
	Size           int    `json:"size"`
	CoverMaxRadius int    `json:"cover_max_radius"`
	Messages       int64  `json:"messages"`
}

// check verifies every kept answer after the loop and reports each failure
// into res.  An answer on a mutated graph is checked against a
// graph.Dynamic mirror: the input graph with the answer's live edges added.
// With durable set, the recovered n and m must equal the mirror's, and
// sampled answers must equal the ones an in-process engine computes on the
// mirror.
func check(in *inputs, rec *recorder, durable bool, res *result) {
	res.Problems = append(res.Problems, rec.errs...)
	res.Attempted += rec.attempted
	res.Failed += rec.failed

	sizes := make(map[string]int) // query without omit_sets, graph state → size
	checkOne := func(g *graph.Graph, q query, live [][2]int, body []byte) (reply, bool) {
		var rp reply
		if err := json.Unmarshal(body, &rp); err != nil {
			res.problem("%s: undecodable answer: %v", q, err)
			return rp, false
		}
		if err := checkReply(g, q, rp); err != nil {
			res.problem("%s (with %d added edges): %v", q, len(live), err)
			return rp, false
		}
		twin := q
		twin.OmitSets = false
		id := fmt.Sprintf("%s@%v", twin, live)
		if s, ok := sizes[id]; ok && s != rp.Size {
			res.problem("%s: size %d, but the same query with sets answered %d", q, rp.Size, s)
			return rp, false
		}
		sizes[id] = rp.Size
		return rp, true
	}

	for _, k := range slices.Sorted(maps.Keys(rec.first)) {
		q := in.queries[k]
		checkOne(in.graph(q.Graph), q, nil, rec.first[k])
	}

	var expect *engine.Engine
	if durable {
		expect = engine.New(engine.Config{})
		defer expect.Close()
	}
	// Recomputing an answer in-process costs as much as the query itself, so
	// the digest comparison runs on at most expectSamples evenly spaced
	// answers; every answer still passes the validity and size checks.
	const expectSamples = 8
	stride := (len(rec.answers) + expectSamples - 1) / expectSamples
	for i, a := range rec.answers {
		q := in.queries[a.key]
		dyn := graph.NewDynamic(in.graph(q.Graph), 0)
		if _, err := dyn.Apply(graph.Delta{Add: a.live}); err != nil {
			res.problem("mirror of %s rejected the live edges: %v", q.Graph, err)
			continue
		}
		g := dyn.Snapshot()
		rp, ok := checkOne(g, q, a.live, a.body)
		if !ok || !durable {
			continue
		}
		if a.n != g.N() || a.m != g.M() {
			res.problem("recovered %s has n=%d m=%d, the mirror n=%d m=%d", q.Graph, a.n, a.m, g.N(), g.M())
			continue
		}
		if i%stride != 0 && i != len(rec.answers)-1 {
			continue
		}
		want, err := expectedSet(expect, q, g)
		if err != nil {
			res.problem("in-process %s: %v", q, err)
			continue
		}
		if !slices.Equal(rp.Set, want) {
			res.problem("%s after recovery differs from the in-process answer on the mirrored graph", q)
		}
	}
}

// checkReply verifies one answer against the paper's guarantees on g.
func checkReply(g *graph.Graph, q query, rp reply) error {
	if rp.Kind != q.Kind || rp.R != q.R {
		return fmt.Errorf("answer echoes kind %q r=%d", rp.Kind, rp.R)
	}
	if rp.Size <= 0 {
		return fmt.Errorf("size %d", rp.Size)
	}
	switch q.Kind {
	case "cover":
		if rp.CoverMaxRadius > 2*q.R {
			return fmt.Errorf("cover radius %d exceeds 2r=%d", rp.CoverMaxRadius, 2*q.R)
		}
		return nil
	}
	if q.OmitSets {
		if rp.Set != nil {
			return fmt.Errorf("omit_sets answer carries a set")
		}
		return nil
	}
	if len(rp.Set) != rp.Size {
		return fmt.Errorf("size %d but %d set members", rp.Size, len(rp.Set))
	}
	switch q.Kind {
	case "cds", "dist-cds":
		if !connect.CheckConnected(g, rp.Set, q.R) {
			return fmt.Errorf("set is not a connected %d-dominating set", q.R)
		}
	default:
		if !domset.Check(g, rp.Set, q.R) {
			return fmt.Errorf("set is not a %d-dominating set", q.R)
		}
	}
	return nil
}

// expectedSet answers q on g with an in-process engine.
func expectedSet(e *engine.Engine, q query, g *graph.Graph) ([]int, error) {
	if _, err := e.Register(q.Graph, g); err != nil {
		return nil, err
	}
	resp, err := e.Do(context.Background(), engine.Request{Graph: q.Graph, Kind: engine.Kind(q.Kind), R: q.R, Solver: q.Solver})
	if err != nil {
		return nil, err
	}
	return resp.Set, nil
}
