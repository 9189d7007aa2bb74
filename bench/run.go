package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// An end-to-end run measures `windows` freshly set-up daemons, each for an
// equal share of --seconds, and pools their samples: on the reference box,
// windows on one daemon agreed more closely than windows on different
// daemons.  It sets up more daemons, unmeasured, while the set-ups so far
// took less than setupBudget, up to maxSetups; setup_s is the median of all
// set-ups.  Cheap set-ups (tens of milliseconds, mostly process start) need
// more repeats for a steady median than serve's seconds-long warm-up.
const (
	windows     = 3
	maxSetups   = 9
	setupBudget = 2.0 // seconds
)

// runEnv is one run of one workload in its private directory.
type runEnv struct {
	cfg       config
	wl        *workload
	in        *inputs
	daemonBin string
	dir       string
}

// setup launches a daemon, uploads every graph and, for a warm workload,
// asks every key once.  It returns the daemon, the seconds from exec to the
// end of set-up, and each upload's milliseconds.
func (e *runEnv) setup(i int) (*daemon, float64, []float64, error) {
	dataDir := ""
	if e.wl.durable {
		dataDir = filepath.Join(e.dir, fmt.Sprintf("data%d", i))
	}
	d, err := newDaemon(e.daemonBin, e.dir, dataDir, e.wl.clients)
	if err != nil {
		return nil, 0, nil, err
	}
	start := time.Now()
	if err := d.launch(); err != nil {
		return nil, 0, nil, err
	}
	ingest, err := setupTarget(d, e.wl, e.in)
	if err != nil {
		d.stop()
		return nil, 0, nil, err
	}
	return d, time.Since(start).Seconds(), ingest, nil
}

// setupTarget registers every input graph on t and warms a warm workload's
// keys.  It returns each registration's milliseconds.
func setupTarget(t target, wl *workload, in *inputs) ([]float64, error) {
	var ingest []float64
	for _, ng := range in.graphs {
		start := time.Now()
		if err := t.register(ng); err != nil {
			return nil, err
		}
		ingest = append(ingest, msSince(start))
	}
	if wl.warm {
		for _, q := range in.queries {
			rep, err := t.query(0, q)
			if err != nil {
				return nil, err
			}
			if rep.status != 200 {
				return nil, fmt.Errorf("warm-up %s: status %d: %s", q, rep.status, truncate(rep.body))
			}
		}
	}
	return ingest, nil
}

// window runs the workload's closed loop on t for warm seconds untimed, then
// for the given seconds timed.  It returns the merged recorder and the
// timed part's wall-clock seconds (the last operation may overrun it).
func (e *runEnv) window(t target, warm, seconds float64) (*recorder, float64, error) {
	from := time.Now().Add(time.Duration(warm * float64(time.Second)))
	recs := make([]*recorder, e.wl.clients)
	for i := range recs {
		recs[i] = newRecorder(from)
	}
	l := &loop{t: t, in: e.in, deadline: from.Add(time.Duration(seconds * float64(time.Second))), recs: recs}
	if err := e.wl.loop(l); err != nil {
		return nil, 0, err
	}
	return merge(recs), time.Since(from).Seconds(), nil
}

// prewarm is how long the loop runs on a daemon before its timed window,
// so the daemon's heap and the machine's clocks settle under load (the
// reference box ran about 10% slower in the first seconds of load after
// idling).
func (e *runEnv) prewarm() float64 {
	if e.cfg.smoke {
		return 0.2
	}
	return 1
}

// measurement is one daemon's timed window.
type measurement struct {
	rec     *recorder
	seconds float64
	rssMB   []float64 // resident-set samples
}

// measure runs the loop on d (warm seconds untimed, then seconds timed),
// reading its counters and resident set around the window, and stops d.
// The load generator runs on one P meanwhile: two Go processes spinning idle
// Ps on the same two cores made sub-millisecond latencies swing by 15%
// between runs.
func (e *runEnv) measure(d *daemon, warm, seconds float64) (measurement, error) {
	defer d.stop()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := d.markBaseline(); err != nil {
		return measurement{}, err
	}
	rss := sampleRSS(d)
	rec, secs, err := e.window(d, warm, seconds)
	samples := rss.finish()
	if err != nil {
		return measurement{}, err
	}
	return measurement{rec: rec, seconds: secs, rssMB: samples}, d.stop()
}

// endToEnd measures the end-to-end metrics with tracing off, then checks
// every answer.
func (e *runEnv) endToEnd() (*result, error) {
	res := &result{Workload: e.wl.name, Graphs: e.in.infos()}
	var (
		setupS, ingest, rss []float64
		recs                []*recorder
		window              float64
		peakKB              int64
		deltas              = make(map[string]float64)
	)
	for i := 0; i < windows || (i < maxSetups && sum(setupS) < setupBudget); i++ {
		d, secs, ing, err := e.setup(i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, secs)
		ingest = append(ingest, ing...)
		if i < windows {
			m, err := e.measure(d, e.prewarm(), e.cfg.seconds/windows)
			if err != nil {
				return nil, err
			}
			recs = append(recs, m.rec)
			window += m.seconds
			rss = append(rss, m.rssMB...)
		} else if err := d.stop(); err != nil {
			return nil, err
		}
		peakKB = max(peakKB, d.peakRSSKB)
		for k, v := range d.deltas {
			deltas[k] += v
		}
	}
	rec := merge(recs)
	check(e.in, rec, e.wl.durable, res)

	res.add("setup_s", "s", median(setupS))
	res.add("queries_per_s", "1/s", float64(len(rec.queryMS))/window)
	res.add("query_p50_ms", "ms", percentile(rec.queryMS, 0.5))
	res.add("query_p90_ms", "ms", percentile(rec.queryMS, 0.9))
	res.add("rss_mb", "MB", mean(rss))
	res.diag("peak_rss_mb", "MB", float64(peakKB)/1024)
	for _, m := range daemonLayer(rec, deltas, ingest) {
		res.diag(m.Name, m.Unit, m.Value)
	}
	daemonDiag(res, rec, deltas, e.in, window)
	return res, nil
}

// perLayer is the traced run.  Half the window drives the daemon and reads
// its counters around the window; the other half replays the same seeded
// operations through an in-process engine with spans at every call; then
// every layer's public functions are timed on the workload's sweep graph.
func (e *runEnv) perLayer(traceFile string) (*result, error) {
	res := &result{Workload: e.wl.name, Graphs: e.in.infos()}
	half := e.cfg.seconds / 2

	d, _, ingest, err := e.setup(0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m, err := e.measure(d, 0, half)
	if err != nil {
		return nil, err
	}
	check(e.in, m.rec, e.wl.durable, res)
	for _, lm := range daemonLayer(m.rec, d.deltas, ingest) {
		res.add(lm.Name, lm.Unit, lm.Value)
	}
	daemonDiag(res, m.rec, d.deltas, e.in, m.seconds)

	tr := newTracer()
	dataDir := ""
	if e.wl.durable {
		dataDir = filepath.Join(e.dir, "replay-data")
	}
	p, err := newInproc(dataDir, e.wl.clients, tr)
	if err != nil {
		return nil, err
	}
	if _, err := setupTarget(p, e.wl, e.in); err != nil {
		p.close()
		return nil, err
	}
	rec, _, err := e.window(p, 0, half)
	p.close()
	if err != nil {
		return nil, err
	}
	check(e.in, rec, e.wl.durable, res)
	var doMS, overheadUS, encodeUS []float64
	for _, c := range p.clients {
		doMS = append(doMS, c.doMS...)
		overheadUS = append(overheadUS, c.overheadUS...)
		encodeUS = append(encodeUS, c.encodeUS...)
	}
	res.add("engine.do_p50_ms", "ms", median(doMS))
	res.add("engine.do_overhead_p50_us", "us", median(overheadUS))
	res.add("domserved.encode_us", "us", mean(encodeUS))
	res.selfTime = tr.selfTime()

	sw := &sweeper{g: e.in.sweep, dir: filepath.Join(e.dir, "sweep"), seed: e.in.seed, tr: tr, res: res}
	if err := sw.run(); err != nil {
		return nil, fmt.Errorf("layer sweep: %w", err)
	}
	if err := tr.writeTrace(traceFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: trace written to %s\n", traceFile)
	return res, nil
}

// daemonLayer returns the per-layer metrics read from a daemon run that
// every workload defines: the HTTP layer's share of each query, answer
// size, upload time, and the engine's execution time not spent in a
// substrate build or a simulator run.  Like the counter deltas, they cover
// every answered query since the baseline, warm-up included.
func daemonLayer(rec *recorder, deltas map[string]float64, ingestMS []float64) []metric {
	n := float64(len(rec.elapsedMS))
	elapsed := sum(rec.elapsedMS)
	builds := promSum(deltas, "bedom_substrate_build_seconds_sum") * 1e3
	distRuns := promSum(deltas, "bedom_dist_run_seconds_sum") * 1e3
	return []metric{
		{"domserved.overhead_p50_ms", median(rec.overheadMS), "ms"},
		{"domserved.response_kb_mean", float64(rec.respBytes) / 1024 / n, "KB"},
		{"domserved.ingest_ms", mean(ingestMS), "ms"},
		{"engine.query_ms_mean", promSum(deltas, "bedom_query_seconds_sum") * 1e3 / promSum(deltas, "bedom_query_seconds_count"), "ms"},
		{"engine.unaccounted_ms", (elapsed - builds - distRuns) / n, "ms"},
	}
}

// daemonDiag adds the text-only diagnostics of a daemon run: metrics that
// only some workloads define, such as mutation latency or the cache hit
// ratio (a dist run makes no cache lookups).
func daemonDiag(res *result, rec *recorder, deltas map[string]float64, in *inputs, window float64) {
	if len(rec.queryMS) >= 1000 {
		res.diag("query_p99_ms", "ms", percentile(rec.queryMS, 0.99))
	}
	res.diag("queries", "count", float64(len(rec.queryMS)))
	for k, q := range in.queries {
		res.diag("p50_ms "+q.String(), "ms", median(rec.keyMS[k]))
	}
	if len(rec.mutateMS) > 0 {
		res.diag("mutate_p50_ms", "ms", percentile(rec.mutateMS, 0.5))
		res.diag("mutate_p90_ms", "ms", percentile(rec.mutateMS, 0.9))
	}
	if len(rec.checkMS) > 0 {
		res.diag("checkpoint_ms", "ms", median(rec.checkMS))
	}
	if len(rec.readyMS) > 0 {
		res.diag("ready_ms", "ms", median(rec.readyMS))
	}
	// Distributed answers repeat exactly per key, so each key's message
	// count times its answer count is the deliveries of every answered
	// query; their round trips are the overhead plus the engine's time.
	var deliveries float64
	for k, body := range rec.first {
		var rp reply
		if json.Unmarshal(body, &rp) == nil {
			deliveries += float64(rp.Messages) * float64(rec.count[k])
		}
	}
	if deliveries > 0 {
		res.diag("deliveries_per_s", "1/s", deliveries/((sum(rec.overheadMS)+sum(rec.elapsedMS))/1e3))
	}
	hits := promSum(deltas, "bedom_cache_hits_total")
	misses := promSum(deltas, "bedom_cache_misses_total")
	res.diag("engine.cache_lookups", "count", hits+misses)
	res.diag("engine.cache_hit_ratio", "ratio", hits/(hits+misses))
	res.diag("engine.substrate_builds", "count", misses)
	res.diag("engine.coalesced", "count", promSum(deltas, "bedom_cache_coalesced_total"))
	stages := promByLabel(deltas, "bedom_substrate_build_seconds_sum", "stage")
	for _, st := range slices.Sorted(maps.Keys(stages)) {
		res.diag("engine.build_ms."+st, "ms", stages[st]*1e3)
	}
	res.diag("dist.run_ms_sum", "ms", promSum(deltas, "bedom_dist_run_seconds_sum")*1e3)
	res.diag("store.wal_append_ms_sum", "ms", promSum(deltas, "bedom_wal_append_seconds_sum")*1e3)
	res.diag("store.snapshot_write_ms_sum", "ms", promSum(deltas, "bedom_snapshot_write_seconds_sum")*1e3)
	res.diag("window_s", "s", window)
}
