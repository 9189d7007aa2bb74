package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bedom/internal/connect"
	"bedom/internal/cover"
	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/graph"
	"bedom/internal/order"
	"bedom/internal/solver"
	"bedom/internal/store"
)

// sweeper times each layer's public functions on one graph, outside the
// program: every call is a span in the trace, each time the median of a few
// calls, each allocation count the heap allocations of one single-worker
// call.
type sweeper struct {
	g    *graph.Graph
	dir  string
	seed int64
	tr   *tracer
	res  *result
}

// sweepBudget bounds the repeats of one timed call; every call runs at
// least once and at most sweepReps times.
const (
	sweepBudget = 500 * time.Millisecond
	sweepReps   = 5
)

// timeMS runs f up to sweepReps times within sweepBudget and returns the
// median milliseconds.
func (s *sweeper) timeMS(name string, f func()) float64 {
	var times []float64
	begin := time.Now()
	for len(times) < sweepReps && (len(times) == 0 || time.Since(begin) < sweepBudget) {
		times = append(times, s.timeOnce(name, f))
	}
	return median(times)
}

// timeOnce runs f once as a sweep span and returns its milliseconds.
func (s *sweeper) timeOnce(name string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	s.tr.add(span{name: name, cat: "sweep", pid: pidSweep, start: start.Sub(s.tr.origin), end: end.Sub(s.tr.origin)})
	return ms(end.Sub(start))
}

// allocs returns the heap allocations of one call of f.  Callers pass
// single-worker calls, so the count does not depend on scheduling.
func allocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func (s *sweeper) run() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	s.graphLayer()
	o := s.orderLayer()
	s.coverLayer(o[1])
	s.domsetLayer(o[1], o[3])
	if err := s.solverLayer(); err != nil {
		return err
	}
	if err := s.distLayer(); err != nil {
		return err
	}
	return s.storeLayer()
}

func (s *sweeper) graphLayer() {
	g, res := s.g, s.res
	edges := g.Edges()
	var fresh *graph.Graph
	var times []float64
	for i := 0; i < 3; i++ {
		fresh = graph.New(g.N())
		for _, e := range edges {
			fresh.AddEdgeLazy(e[0], e[1])
		}
		start := time.Now()
		fresh.Finalize()
		times = append(times, msSince(start))
	}
	res.add("graph.finalize_ms", "ms", median(times))

	dyn := graph.NewDynamic(g, 0)
	mut := newMutator(g, s.seed, 1)
	times = times[:0]
	for i := 0; i < 200; i++ {
		d := mut.next()
		start := time.Now()
		dyn.Apply(d)
		times = append(times, float64(time.Since(start))/float64(time.Microsecond))
	}
	res.add("graph.dynamic_apply_us", "us", median(times))
	res.add("graph.dynamic_snapshot_ms", "ms", s.timeMS("graph.Dynamic.Snapshot", func() {
		dyn.Apply(mut.next())
		dyn.Snapshot()
	}))
}

// orderOptions is the engine's order construction for radius r.
func orderOptions(r, workers int) order.Options {
	opts := order.DefaultOptions(r)
	opts.Workers = workers
	return opts
}

// orderLayer times the order constructions and weak-reachability sweeps the
// query kinds use: domset r=1 (order r1, WReach s2), domset r=2 (r2, s4)
// and cds r=1 (r3, s3).
func (s *sweeper) orderLayer() [4]*order.Order {
	g, res := s.g, s.res
	var o [4]*order.Order
	for r := 1; r <= 3; r++ {
		res.add(fmt.Sprintf("order.construct_ms.r%d", r), "ms", s.timeMS(fmt.Sprintf("order.Construct r=%d", r), func() {
			o[r] = order.Construct(g, orderOptions(r, 0)).Order
		}))
	}
	for _, p := range [][2]int{{1, 2}, {3, 3}, {2, 4}} {
		r, sr := p[0], p[1]
		res.add(fmt.Sprintf("order.wreach_ms.s%d", sr), "ms", s.timeMS(fmt.Sprintf("order.WReachSets s=%d", sr), func() {
			order.WReachSetsWorkers(g, o[r], sr, 0)
		}))
	}
	res.add("order.construct_allocs", "count", allocs(func() { order.Construct(g, orderOptions(1, 1)) }))
	res.add("order.wreach_allocs", "count", allocs(func() { order.WReachSetsWorkers(g, o[1], 2, 1) }))
	return o
}

func (s *sweeper) coverLayer(o1 *order.Order) {
	g, res := s.g, s.res
	setsR := order.WReachSetsWorkers(g, o1, 1, 0)
	sets2R := order.WReachSetsWorkers(g, o1, 2, 0)
	res.add("cover.build_ms", "ms", s.timeMS("cover.BuildFromSets r=1", func() {
		cover.BuildFromSets(g, 1, setsR, sets2R, 0)
	}))
	res.add("cover.build_allocs", "count", allocs(func() { cover.BuildFromSets(g, 1, setsR, sets2R, 1) }))
}

func (s *sweeper) domsetLayer(o1, o3 *order.Order) {
	g, res := s.g, s.res
	var D []int
	res.add("domset.algorithm_one_ms", "ms", s.timeMS("domset.AlgorithmOne r=1", func() {
		D = domset.AlgorithmOne(g, o1, 1)
	}))
	res.add("domset.lower_bound_ms", "ms", s.timeMS("domset.ScatteredLowerBound r=1", func() {
		domset.ScatteredLowerBound(g, 1, D)
	}))
	// The cds pipeline: Algorithm 1 on the order for 2r+1, then the closure.
	D3 := domset.AlgorithmOne(g, o3, 1)
	res.add("connect.closure_ms", "ms", s.timeMS("connect.Closure r=1", func() {
		connect.Closure(g, o3, D3, 1)
	}))
}

// solverLayer times each solver's own compute at r=2 on a substrate that is
// already built (the first Solve builds it).
func (s *sweeper) solverLayer() error {
	g, res := s.g, s.res
	sub := solver.NewLocal(g, 0)
	for _, name := range []string{"paper", "dvorak", "order-greedy"} {
		sv, err := solver.Get(name)
		if err != nil {
			return err
		}
		if _, err := sv.Solve(context.Background(), g, 2, sub); err != nil {
			return fmt.Errorf("solver %s: %w", name, err)
		}
		res.add("solver."+name+".solve_ms", "ms", s.timeMS("solver "+name+" r=2", func() {
			sv.Solve(context.Background(), g, 2, sub)
		}))
	}
	return nil
}

// distLayer runs the Theorem 9 pipeline (dist-domset r=1) and the Theorem
// 10 pipeline (dist-cds r=1) through the simulator in CONGEST_BC.
func (s *sweeper) distLayer() error {
	g, res := s.g, s.res
	res.add("dist.new_runner_ms", "ms", s.timeMS("dist.NewRunner", func() {
		dist.NewRunner(g, dist.CongestBC, dist.Options{})
	}))
	// Runs with and without a Probe alternate, so drift of the machine
	// during the sweep does not land on one side of the overhead.
	var (
		out           *distalgo.DomSetResult
		probe         *dist.Probe
		err, perr     error
		plain, probed []float64
	)
	for i := 0; i < sweepReps; i++ {
		plain = append(plain, s.timeOnce("distalgo.RunDomSet r=1", func() {
			out, err = distalgo.RunDomSet(g, 1, dist.CongestBC, dist.Options{})
		}))
		probed = append(probed, s.timeOnce("distalgo.RunDomSet r=1 probed", func() {
			probe = &dist.Probe{}
			_, perr = distalgo.RunDomSet(g, 1, dist.CongestBC, dist.Options{Probe: probe})
		}))
		if err != nil || perr != nil {
			return errors.Join(err, perr)
		}
	}
	runMS, probeMS := median(plain), median(probed)
	st := out.Stats
	msgs := float64(st.Messages)
	res.add("dist.run_ms", "ms", runMS)
	res.add("dist.ns_per_delivery", "ns", runMS*1e6/msgs)
	res.add("dist.allocs_per_delivery", "count", allocs(func() {
		distalgo.RunDomSet(g, 1, dist.CongestBC, dist.Options{Workers: 1})
	})/msgs)
	res.add("dist.probe_overhead_pct", "pct", 100*(probeMS-runMS)/runMS)
	profiles := probe.Profiles()
	res.add("dist.runs_per_query", "count", float64(len(profiles)))
	res.add("dist.rounds", "count", float64(st.Rounds))
	res.add("dist.messages", "count", msgs)
	res.add("dist.words", "count", float64(st.Words))
	res.add("dist.max_message_words", "count", float64(st.MaxMessageWords))

	cprobe := &dist.Probe{}
	start := time.Now()
	if _, err := distalgo.RunConnectedDomSet(g, 1, dist.CongestBC, dist.Options{Probe: cprobe}); err != nil {
		return err
	}
	s.tr.add(span{name: "distalgo.RunConnectedDomSet r=1 probed", cat: "sweep", pid: pidSweep,
		start: start.Sub(s.tr.origin), end: time.Since(s.tr.origin)})
	phaseNS := make(map[string]int64)
	for _, p := range append(profiles, cprobe.Profiles()...) {
		phaseNS[p.Phase] += p.DurationNS
	}
	for _, phase := range []string{"hpartition", "wreach", "election", "connect"} {
		ns, ok := phaseNS[phase]
		if !ok {
			return fmt.Errorf("no %q phase in the distributed runs' profiles", phase)
		}
		res.add("distalgo."+phase+".ms", "ms", float64(ns)/1e6)
	}
	return nil
}

// storeLayer times the snapshot codecs, mmap open, WAL append (fsynced) and
// a store open that scans a snapshot and a WAL of 200 records.
func (s *sweeper) storeLayer() error {
	g, res := s.g, s.res
	meta := store.SnapshotMeta{Name: "g", Epoch: 1}
	var raw, varint bytes.Buffer
	var err error
	res.add("store.snapshot_encode_ms.raw", "ms", s.timeMS("store.EncodeSnapshotRaw", func() {
		raw.Reset()
		err = store.EncodeSnapshotRaw(&raw, meta, g)
	}))
	if err != nil {
		return err
	}
	res.add("store.snapshot_encode_ms.varint", "ms", s.timeMS("store.EncodeSnapshot", func() {
		varint.Reset()
		err = store.EncodeSnapshot(&varint, meta, g)
	}))
	if err != nil {
		return err
	}
	res.add("store.snapshot_decode_ms", "ms", s.timeMS("store.DecodeSnapshot", func() {
		_, _, err = store.DecodeSnapshot(bytes.NewReader(varint.Bytes()))
	}))
	if err != nil {
		return err
	}
	rawPath := filepath.Join(s.dir, "raw.snap")
	if err := os.WriteFile(rawPath, raw.Bytes(), 0o644); err != nil {
		return err
	}
	res.add("store.mmap_open_ms", "ms", s.timeMS("store.OpenMmapSnapshot", func() {
		var m *store.Mapping
		if _, _, m, err = store.OpenMmapSnapshot(rawPath); err == nil {
			err = m.Close()
		}
	}))
	if err != nil {
		return err
	}

	dir := filepath.Join(s.dir, "store")
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	if err := st.SaveSnapshot(meta, g); err != nil {
		st.Close()
		return err
	}
	mut := newMutator(g, s.seed, 1)
	var times []float64
	for i := 0; i < 200; i++ {
		d := mut.next()
		start := time.Now()
		if _, err := st.AppendDelta(meta.Name, meta.Epoch, uint64(i+2), d); err != nil {
			st.Close()
			return err
		}
		times = append(times, float64(time.Since(start))/float64(time.Microsecond))
	}
	if err := st.Close(); err != nil {
		return err
	}
	res.add("store.append_delta_us", "us", median(times))
	res.add("store.open_ms", "ms", s.timeMS("store.Open", func() {
		var st *store.Store
		var rec *store.Recovery
		if st, rec, err = store.Open(dir, store.Options{Mmap: true}); err != nil {
			return
		}
		if len(rec.Records) != 200 || len(rec.Graphs) != 1 {
			err = fmt.Errorf("store.Open recovered %d graphs and %d WAL records, want 1 and 200", len(rec.Graphs), len(rec.Records))
		}
		st.ReleaseMappings()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}))
	return err
}
