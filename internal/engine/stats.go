package engine

import (
	"sort"

	"bedom/internal/obs"
	"bedom/internal/store"
)

// statsCollector holds the engine's metric handles, all registered in one
// obs.Registry: the Prometheus exposition and the JSON Stats snapshot read
// the same underlying counters, so the two views can never diverge.  Handles
// are resolved once at engine construction; the hot path touches atomics
// only.
type statsCollector struct {
	reg *obs.Registry

	// queries counts every accepted query by (kind, solver); the solver
	// label is empty for kinds pinned to the paper pipeline.  Do increments
	// it BEFORE submitting to the executor, so any cache hit a query records
	// is always preceded by its query count (Stats reads hits first, keeping
	// hits ≤ queries in every snapshot).
	queries      *obs.CounterVec
	querySeconds *obs.HistogramVec
	errors       *obs.Counter
	timeouts     *obs.Counter
	// shed counts queries rejected with ErrOverloaded (admission queue full
	// past the wait budget); queryPanics counts panics recovered from query
	// pipelines (each failed only its own query).
	shed        *obs.Counter
	queryPanics *obs.Counter
	// degradedTransitions counts entries into read-only degraded mode.
	degradedTransitions *obs.Counter

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheCoalesced *obs.Counter
	cacheEvictions *obs.Counter
	// buildSeconds breaks substrate construction down by stage (order,
	// wreach, cover, solve); each build site reports its exclusive leaf work
	// (see substrateCache.timedBuild), and BuildMSTotal is the stages' sum.
	buildSeconds *obs.HistogramVec

	mutations     *obs.Counter
	compactions   *obs.Counter
	mutateSeconds *obs.Histogram

	walAppends           *obs.Counter
	walAppendSeconds     *obs.Histogram
	snapshotWrites       *obs.Counter
	snapshotWriteSeconds *obs.Histogram
	checkpoints          *obs.Counter
	checkpointSeconds    *obs.Histogram
	persistErrors        *obs.Counter
}

func newStatsCollector(reg *obs.Registry) *statsCollector {
	return &statsCollector{
		reg: reg,

		queries:      reg.CounterVec("bedom_queries_total", "Queries accepted, by kind and solver strategy.", "kind", "solver"),
		querySeconds: reg.HistogramVec("bedom_query_seconds", "Query execution latency (excluding queueing), by kind and solver.", nil, "kind", "solver"),
		errors:       reg.Counter("bedom_query_errors_total", "Queries that failed (validation, unknown graph, execution error or timeout)."),
		timeouts:     reg.Counter("bedom_query_timeouts_total", "Queries that exceeded their deadline."),
		shed:         reg.Counter("bedom_queries_shed_total", "Queries shed with ErrOverloaded (admission queue full past the wait budget)."),
		queryPanics:  reg.Counter("bedom_query_panics_total", "Panics recovered from query pipelines (each failed only its own query)."),

		degradedTransitions: reg.Counter("bedom_degraded_transitions_total", "Entries into read-only degraded mode."),

		cacheHits:      reg.Counter("bedom_cache_hits_total", "Substrate cache hits."),
		cacheMisses:    reg.Counter("bedom_cache_misses_total", "Substrate cache misses (builds started)."),
		cacheCoalesced: reg.Counter("bedom_cache_coalesced_total", "Queries that waited on a concurrent build of the same substrate."),
		cacheEvictions: reg.Counter("bedom_cache_evictions_total", "Substrates evicted from the LRU."),
		buildSeconds:   reg.HistogramVec("bedom_substrate_build_seconds", "Exclusive substrate build time by stage (order, wreach, cover, solve).", nil, "stage"),

		mutations:     reg.Counter("bedom_mutations_total", "Effective Mutate calls across all graphs."),
		compactions:   reg.Counter("bedom_compactions_total", "Delta-overlay compactions triggered by Mutate."),
		mutateSeconds: reg.Histogram("bedom_mutate_seconds", "Mutate latency (apply, WAL tee and cache purge).", nil),

		walAppends:           reg.Counter("bedom_wal_appends_total", "Deltas appended to the WAL."),
		walAppendSeconds:     reg.Histogram("bedom_wal_append_seconds", "WAL append latency (including group-commit fsync).", nil),
		snapshotWrites:       reg.Counter("bedom_snapshot_writes_total", "Graph snapshots written (registrations and checkpoints)."),
		snapshotWriteSeconds: reg.Histogram("bedom_snapshot_write_seconds", "Snapshot encode+write latency.", nil),
		checkpoints:          reg.Counter("bedom_checkpoints_total", "Completed checkpoint cycles."),
		checkpointSeconds:    reg.Histogram("bedom_checkpoint_seconds", "Checkpoint cycle latency.", nil),
		persistErrors:        reg.Counter("bedom_persist_errors_total", "Persistence failures (snapshot writes, WAL appends, checkpoint steps)."),
	}
}

// KindCount is the number of queries served for one kind.
type KindCount struct {
	Kind  Kind   `json:"kind"`
	Count uint64 `json:"count"`
}

// SolverCount is the number of solver-dispatched queries served for one
// strategy (domset / greedy / dist-domset kinds; other kinds are pinned to
// the paper pipeline and not counted here).
type SolverCount struct {
	Solver string `json:"solver"`
	Count  uint64 `json:"count"`
}

// GraphStat is the per-graph slice of Stats: the current topology, cache
// generation and mutation counters of one registered graph.
type GraphStat struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Gen is the substrate-cache generation (bumped on re-registration and
	// on every effective mutation).
	Gen uint64 `json:"gen"`
	// Mutations counts effective Mutate calls on this graph.
	Mutations uint64 `json:"mutations"`
	// PendingDelta is the graph's current delta-overlay size in half-edges.
	PendingDelta int `json:"pending_delta"`
	// Compactions counts overlay-into-CSR folds for this graph.
	Compactions uint64 `json:"compactions"`
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	// Graphs is the number of registered graphs.
	Graphs int `json:"graphs"`

	// Substrate cache.
	CacheEntries  int    `json:"cache_entries"`
	CacheCapacity int    `json:"cache_capacity"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	// Coalesced counts queries that waited on a concurrent build of the same
	// substrate instead of building their own (single-flight).
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	// SubstrateBuilds is the number of substrate constructions actually
	// performed (== CacheMisses; kept explicit for the tests' contract).
	SubstrateBuilds uint64 `json:"substrate_builds"`
	// BuildMSTotal is the total wall-clock time spent building substrates.
	BuildMSTotal float64 `json:"build_ms_total"`

	// Query executor.
	Queries  uint64 `json:"queries"`
	Errors   uint64 `json:"errors"`
	Timeouts uint64 `json:"timeouts"`
	// QueriesShed counts queries rejected with ErrOverloaded; QueryPanics
	// counts panics recovered from query pipelines.
	QueriesShed uint64 `json:"queries_shed"`
	QueryPanics uint64 `json:"query_panics"`
	// QueueDepth / QueueCapacity describe the admission queue at snapshot
	// time.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	// Degraded reports read-only degraded mode: true while persistence is
	// failing (mutations/registrations rejected with ErrDegraded, queries
	// serving from memory).  DegradedTransitions counts entries into the mode
	// over the engine's lifetime.
	Degraded            bool   `json:"degraded"`
	DegradedReason      string `json:"degraded_reason,omitempty"`
	DegradedTransitions uint64 `json:"degraded_transitions"`
	// QueryMSTotal is the total wall-clock time spent executing queries
	// (excluding queueing).
	QueryMSTotal float64     `json:"query_ms_total"`
	PerKind      []KindCount `json:"per_kind,omitempty"`
	// PerSolver counts queries per solver strategy (see SolverCount).
	PerSolver []SolverCount `json:"per_solver,omitempty"`

	// Dynamic graphs.

	// Mutations counts effective Mutate calls across all graphs.
	Mutations uint64 `json:"mutations"`
	// Compactions totals delta-overlay compactions over the engine's
	// lifetime (it never decreases, even when graphs are removed or
	// re-registered; per-graph counts live in GraphStats).
	Compactions uint64 `json:"compactions"`
	// GraphStats lists per-graph generations and mutation counters, sorted
	// by name.
	GraphStats []GraphStat `json:"graph_stats,omitempty"`

	// Persist holds the durability counters of a persistent engine (nil on
	// engines constructed with New).
	Persist *PersistStats `json:"persist,omitempty"`
}

// PersistStats is the persistence slice of Stats: the store's counters plus
// the engine-side replay and failure accounting.
type PersistStats struct {
	store.Stats
	// ReplayedRecords / SkippedRecords count WAL records applied / skipped
	// (wrong epoch, covered by a snapshot, or orphaned) during Open.
	ReplayedRecords int `json:"replayed_records"`
	SkippedRecords  int `json:"skipped_records"`
	// LastCheckpointLSN is the WAL position after the most recent completed
	// checkpoint (0 before the first).
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn"`
	// Errors counts persistence failures (snapshot writes, WAL appends,
	// checkpoint steps) since the engine started.
	Errors uint64 `json:"errors"`
}

// Stats returns a snapshot of the engine counters.  All counters are read
// from the metrics registry, so this JSON view and GET /metrics agree by
// construction.
func (e *Engine) Stats() Stats {
	// Snapshot the registry under the lock; each entry's (Gen, N, M) triple
	// is then read consistently via entryInfo (under its mutation mutex).
	e.mu.Lock()
	graphs := len(e.graphs)
	entries := make([]*graphEntry, 0, len(e.graphs))
	for _, ent := range e.graphs {
		entries = append(entries, ent)
	}
	e.mu.Unlock()
	// Read order matters: cache hits strictly before the query counters.
	// Do counts a query before submitting it, so every hit is preceded by
	// its query's increment; loading hits first therefore can never observe
	// hits > queries, no matter how the loads interleave with live queries.
	hits := e.stats.cacheHits.Value()
	misses := e.stats.cacheMisses.Value()
	coalesced := e.stats.cacheCoalesced.Value()
	evictions := e.stats.cacheEvictions.Value()
	queryCounts := e.stats.queries.Counts()
	st := Stats{
		Graphs:              graphs,
		CacheEntries:        e.cache.len(),
		CacheCapacity:       e.cache.capacity,
		CacheHits:           hits,
		CacheMisses:         misses,
		Coalesced:           coalesced,
		Evictions:           evictions,
		SubstrateBuilds:     misses,
		BuildMSTotal:        e.stats.buildSeconds.TotalSum() * 1e3,
		Errors:              e.stats.errors.Value(),
		Timeouts:            e.stats.timeouts.Value(),
		QueriesShed:         e.stats.shed.Value(),
		QueryPanics:         e.stats.queryPanics.Value(),
		QueueDepth:          e.exec.queueLen(),
		QueueCapacity:       e.cfg.QueueDepth,
		DegradedTransitions: e.stats.degradedTransitions.Value(),
		QueryMSTotal:        e.stats.querySeconds.TotalSum() * 1e3,
		Mutations:           e.stats.mutations.Value(),
		Compactions:         e.stats.compactions.Value(),
	}
	if reason := e.degraded.Load(); reason != nil {
		st.Degraded, st.DegradedReason = true, *reason
	}
	// Derive the query totals and the per-kind / per-solver breakdowns from
	// one snapshot of the (kind, solver) counter family.
	perKind := make(map[Kind]uint64)
	perSolver := make(map[string]uint64)
	for _, c := range queryCounts {
		st.Queries += c.Value
		perKind[Kind(c.Labels[0])] += c.Value
		if c.Labels[1] != "" {
			perSolver[c.Labels[1]] += c.Value
		}
	}
	for k, c := range perKind {
		st.PerKind = append(st.PerKind, KindCount{Kind: k, Count: c})
	}
	for name, c := range perSolver {
		st.PerSolver = append(st.PerSolver, SolverCount{Solver: name, Count: c})
	}
	sort.Slice(st.PerKind, func(i, j int) bool { return st.PerKind[i].Kind < st.PerKind[j].Kind })
	sort.Slice(st.PerSolver, func(i, j int) bool { return st.PerSolver[i].Solver < st.PerSolver[j].Solver })
	graphStats := make([]GraphStat, len(entries))
	for i, ent := range entries {
		gs := &graphStats[i]
		ent.mutMu.Lock()
		dst := ent.dyn.Stats()
		e.mu.Lock()
		gs.Gen = ent.gen
		e.mu.Unlock()
		ent.mutMu.Unlock()
		gs.Name = ent.name
		gs.Mutations = ent.mutations.Load()
		gs.N, gs.M = dst.N, dst.M
		gs.PendingDelta, gs.Compactions = dst.PendingDelta, dst.Compactions
	}
	st.GraphStats = graphStats
	sort.Slice(st.GraphStats, func(i, j int) bool { return st.GraphStats[i].Name < st.GraphStats[j].Name })
	if e.store != nil {
		st.Persist = &PersistStats{
			Stats:             e.store.Stats(),
			ReplayedRecords:   e.replayed,
			SkippedRecords:    e.replaySkipped,
			LastCheckpointLSN: e.lastCkptLSN.Load(),
			Errors:            e.stats.persistErrors.Value(),
		}
	}
	return st
}
