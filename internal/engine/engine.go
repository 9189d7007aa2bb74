// Package engine is the concurrent domination query engine: a graph
// registry, an LRU-bounded substrate cache with single-flight deduplication,
// and a worker-pool query executor with per-query timeouts and batching.
//
// The weak-reachability order is the one expensive, reusable substrate
// behind all of the paper's pipelines (Amiri–Ossona de Mendez–Rabinovich–
// Siebertz, SPAA 2018): for a fixed graph it stays valid across every query
// with a compatible radius, the same observation that lets Kublenz–Siebertz–
// Vigny (2021) treat the order as a precomputed object that many domination
// queries then consume cheaply.  The engine amortizes substrate construction
// (orders, weak-reachability sets, and the answer of each sequential query)
// across queries: the first query for a (graph, radius) pair pays for
// construction, concurrent duplicates coalesce onto that build, and later
// queries reuse the cached substrate until it ages out of the LRU.
//
// The public facade (api.go) routes its one-shot functions through a shared
// default engine, and cmd/domserved exposes an engine over HTTP.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"bedom/internal/fault"
	"bedom/internal/graph"
	"bedom/internal/obs"
	"bedom/internal/order"
	"bedom/internal/store"
)

// Engine errors.
var (
	// ErrEngineClosed is returned by queries submitted after Close.
	ErrEngineClosed = errors.New("engine: closed")
	// ErrUnknownGraph is returned when a query names an unregistered graph.
	ErrUnknownGraph = errors.New("engine: unknown graph")
	// ErrInvalidRequest wraps malformed requests (bad kind, radius < 1, ...).
	ErrInvalidRequest = errors.New("engine: invalid request")
	// ErrNotConnected rejects connected-dominating-set queries on
	// disconnected graphs.  It wraps ErrInvalidRequest.
	ErrNotConnected = fmt.Errorf("%w: connected dominating sets require a connected graph", ErrInvalidRequest)
	// ErrConflict is returned when an operation loses a race with a
	// conflicting concurrent operation on the same graph (e.g. a mutation
	// applied while the name was re-registered); the caller may retry
	// against the current registration.
	ErrConflict = errors.New("engine: conflicting concurrent operation")
	// ErrDegraded rejects mutations and registrations while the engine is in
	// read-only degraded mode (entered after a persistent store failure;
	// queries keep serving from memory).  A successful checkpoint exits the
	// mode.
	ErrDegraded = errors.New("engine: degraded (read-only): persistence unavailable")
	// ErrOverloaded is returned when the admission queue is full and the
	// queue-wait budget elapsed before a slot freed — the engine sheds the
	// query instead of piling up goroutines.  Callers should back off and
	// retry (domserved maps it to 503 + Retry-After).
	ErrOverloaded = errors.New("engine: overloaded, query shed")
	// ErrQueryPanic wraps a panic recovered from a query's pipeline (a solver
	// or substrate build bug).  Only the panicking query fails; the stack is
	// logged under the query's trace ID.
	ErrQueryPanic = errors.New("engine: query panicked")
)

// Config tunes an Engine.  The zero value selects sensible defaults.
type Config struct {
	// CacheEntries bounds the number of cached substrates (LRU eviction).
	// Default 128.
	CacheEntries int
	// Workers is the query-executor pool size.  Default GOMAXPROCS.  It also
	// bounds the substrate builds queries run at once: a build runs on the
	// worker of the query that missed, and nested builds run inside it
	// (OrderFor builds on its caller's goroutine).
	Workers int
	// QueueDepth bounds queued-but-unstarted queries.  Default 4·Workers.
	QueueDepth int
	// DefaultTimeout applies to queries that set no per-request timeout
	// (0 = no timeout).
	DefaultTimeout time.Duration
	// SubstrateWorkers bounds the goroutines used inside one substrate build
	// (order augmentation scans, weak-reachability sweeps, cover inversion)
	// and per simulator round of a distributed query.  0 = GOMAXPROCS.
	// Substrate outputs and simulator runs are bit-identical for every
	// value; the knob only trades latency against CPU share.
	SubstrateWorkers int
	// CheckpointInterval is the cadence of the background checkpointer of a
	// persistent engine (see Open): the WAL is folded into fresh snapshots
	// whenever it advanced since the previous cycle.  0 disables the
	// background loop (Checkpoint can still be called explicitly).  Ignored
	// by New — only Open starts the checkpointer.
	CheckpointInterval time.Duration
	// Metrics is the registry the engine's counters, gauges and latency
	// histograms register in (nil = a private registry; cmd/domserved passes
	// obs.Default so one /metrics scrape covers the whole process).  A
	// registry must not be shared by two live engines — the per-engine
	// gauges would shadow each other.
	Metrics *obs.Registry
	// QueueWaitBudget bounds how long a query may wait for an admission-queue
	// slot when the queue is full before it is shed with ErrOverloaded
	// (0 = 500ms; negative = shed immediately on a full queue).  Queries
	// already queued are unaffected — the budget gates admission only.
	QueueWaitBudget time.Duration
	// StageHook, when non-nil, is invoked at engine pipeline stage boundaries
	// ("query:<kind>", "substrate:order", "substrate:wreach", and
	// "substrate:<kind>" and "solve:<strategy>" for the answer of a
	// sequential kind).  It exists for fault injection (latency, panics —
	// see internal/fault.Stages); production configs leave it nil and pay a
	// single nil check per stage.
	StageHook func(stage string)
	// FS routes a persistent engine's store through an alternate filesystem
	// (nil = the real one).  Tests pass a fault.Injector.  Ignored by New.
	FS fault.FS
}

func (c Config) normalised() Config {
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueWaitBudget == 0 {
		c.QueueWaitBudget = 500 * time.Millisecond
	}
	return c
}

// anonLimit bounds the anonymous-graph handle table of the facade path; when
// exceeded the table is reset (old generations age out of the LRU).
const anonLimit = 1024

// graphEntry is a registered graph.  dyn holds the mutable delta-overlay
// state; queries read the topology through dyn.Snapshot(), which is
// materialized lazily on the first read after a mutation and cached inside
// the Dynamic (so Mutate itself stays O(|delta|)).  gen is the substrate
// cache generation, bumped under Engine.mu on every effective mutation.
type graphEntry struct {
	name string
	gen  uint64

	dyn *graph.Dynamic
	// mutMu makes a mutation's apply → generation bump → purge atomic with
	// respect to resolve's (snapshot, generation) read: a query can never
	// pair one topology with another topology's generation — in either
	// direction — which is what keeps pre-purge cache hits safe.  On a
	// persistent engine it additionally covers the WAL tee (apply → append
	// keeps per-graph log order equal to apply order) and the checkpoint
	// snapshot write (a consistent topology/coveredLSN pair).
	mutMu     sync.Mutex
	mutations atomic.Uint64

	// epoch identifies this registration in the persistence layer: WAL
	// records carry it, so recovery never replays deltas of an earlier
	// registration of the same name.  0 on non-persistent engines.
	epoch uint64
	// lastLSN is the WAL position of this graph's most recent logged delta
	// (guarded by mutMu); checkpoints persist it as the snapshot's covered
	// position.
	lastLSN uint64
}

// info builds the entry's GraphInfo from the live overlay counters — one
// locked read (Dynamic.Stats), so the (N, M) pair is always a topology that
// actually existed; no snapshot is materialized.  The caller must supply a
// generation consistent with the counters (hold mutMu, or use
// Engine.entryInfo).
func (ent *graphEntry) info(gen uint64) GraphInfo {
	st := ent.dyn.Stats()
	return GraphInfo{Name: ent.name, N: st.N, M: st.M, Gen: gen}
}

// entryInfo reads a consistent (Gen, N, M) triple: mutMu excludes the
// apply → bump window, so the generation always matches the counters (a
// consumer inferring "generation unchanged ⇒ topology unchanged" is never
// misled).
func (e *Engine) entryInfo(ent *graphEntry) GraphInfo {
	ent.mutMu.Lock()
	defer ent.mutMu.Unlock()
	e.mu.Lock()
	gen := ent.gen
	e.mu.Unlock()
	return ent.info(gen)
}

// GraphInfo describes a registered graph.
type GraphInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int    `json:"m"`
	// Gen is the graph's substrate-cache generation; it increases on every
	// re-registration and every effective mutation.
	Gen uint64 `json:"gen"`
}

// Engine is a concurrent domination query engine.  All methods are safe for
// concurrent use.  Close must not race with in-flight Do/Batch callers'
// submissions (outstanding queries fail with ErrEngineClosed).
type Engine struct {
	cfg   Config
	cache *substrateCache
	exec  *executor
	stats *statsCollector

	// distRuns retains recent distributed-run round profiles.
	distRuns *distRunLog

	mu      sync.Mutex
	graphs  map[string]*graphEntry
	anon    map[weak.Pointer[graph.Graph]]uint64
	nextGen uint64

	// degraded holds the reason while the engine is in read-only degraded
	// mode (nil = writable): entered when a store write fails (WAL append,
	// snapshot write, checkpoint step), exited by the next successful
	// checkpoint.  One pointer, so every reader sees the mode and its reason
	// together.
	degraded atomic.Pointer[string]

	// Persistence (nil/zero on engines constructed with New; see Open).
	store       *store.Store
	ckptMu      sync.Mutex // serializes Register, Remove and Checkpoint (also on New engines)
	ckptStop    chan struct{}
	ckptDone    chan struct{}
	ckptRan     atomic.Bool
	lastCkptLSN atomic.Uint64
	closeOnce   sync.Once
	// replayed/replaySkipped count WAL records applied/skipped during Open
	// (immutable once the engine is returned).
	replayed      int
	replaySkipped int
}

// detached returns the context a build's nested substrate fetches run
// under.  It keeps ctx's values, so the nested builds land in the query's
// trace, but not its deadline: a shared build must not inherit one
// requester's timeout.
func detached(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

// New returns a ready engine.
func New(cfg Config) *Engine {
	cfg = cfg.normalised()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	stats := newStatsCollector(reg)
	e := &Engine{
		cfg:      cfg,
		cache:    newSubstrateCache(cfg.CacheEntries, stats),
		exec:     newExecutor(cfg.Workers, cfg.QueueDepth, cfg.QueueWaitBudget),
		stats:    stats,
		graphs:   make(map[string]*graphEntry),
		anon:     make(map[weak.Pointer[graph.Graph]]uint64),
		distRuns: newDistRunLog(),
	}
	// Scrape-time gauges.  The closures keep the engine reachable for the
	// registry's lifetime, which is why sharing a registry across engines is
	// documented out (the last registrant would win anyway).
	reg.GaugeFunc("bedom_graphs", "Registered graphs.", func() float64 { return float64(e.GraphCount()) })
	reg.GaugeFunc("bedom_cache_entries", "Live substrate cache entries.", func() float64 { return float64(e.cache.len()) })
	reg.Gauge("bedom_cache_capacity", "Substrate cache capacity (LRU bound).").Set(float64(cfg.CacheEntries))
	reg.GaugeFunc("bedom_degraded", "1 while the engine is in read-only degraded mode.", func() float64 {
		if e.degraded.Load() != nil {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("bedom_queue_depth", "Queries queued for a worker.", func() float64 { return float64(e.exec.queueLen()) })
	reg.Gauge("bedom_queue_capacity", "Admission queue capacity.").Set(float64(cfg.QueueDepth))
	return e
}

// stage invokes the configured stage hook (fault injection); a nil hook costs
// one branch.  Panics raised by the hook propagate to the caller on purpose —
// they exercise exactly the recovery paths production panics would take.
func (e *Engine) stage(name string) {
	if e.cfg.StageHook != nil {
		e.cfg.StageHook(name)
	}
}

// enterDegraded flips the engine into read-only degraded mode (idempotent:
// only the first call per outage records the reason and counts a transition).
func (e *Engine) enterDegraded(reason string) {
	if !e.degraded.CompareAndSwap(nil, &reason) {
		return
	}
	e.stats.degradedTransitions.Inc()
	slog.Warn("engine entering degraded (read-only) mode", "reason", reason)
}

// clearDegraded exits degraded mode (called after a successful checkpoint
// proved the store writable again).
func (e *Engine) clearDegraded() {
	if e.degraded.Swap(nil) != nil {
		slog.Info("engine recovered from degraded mode")
	}
}

// checkWritable rejects mutating operations while degraded.
func (e *Engine) checkWritable() error {
	if reason := e.degraded.Load(); reason != nil {
		return fmt.Errorf("%w (%s)", ErrDegraded, *reason)
	}
	return nil
}

// Health states reported by Health.
const (
	HealthOK         = "ok"
	HealthDegraded   = "degraded"
	HealthOverloaded = "overloaded"
)

// Health reports the engine's liveness state: "degraded" (read-only; reason
// explains why), "overloaded" (the admission queue is full — queries are
// about to be shed), or "ok".  Degraded wins over overloaded: it is the
// stickier condition and the one an operator must act on.
func (e *Engine) Health() (state, reason string) {
	if reason := e.degraded.Load(); reason != nil {
		return HealthDegraded, *reason
	}
	if e.exec.queueLen() >= e.cfg.QueueDepth {
		return HealthOverloaded, "admission queue full"
	}
	return HealthOK, ""
}

// Close shuts the query executor down and releases the substrate cache,
// registry and anonymous-graph handles.  Queued queries fail with
// ErrEngineClosed.  Releasing state matters because the GC cleanups
// registered on anonymous graphs reference the engine: without it, a
// discarded engine's cached substrates would stay reachable for as long as
// any graph it ever served is alive.
func (e *Engine) Close() {
	// Stop the checkpointer and seal the WAL first: a checkpoint running
	// concurrently with the teardown below would snapshot a registry being
	// cleared.  Buffered-but-unsynced WAL records are flushed here, so a
	// graceful close never loses an acknowledged mutation.
	e.closePersistence()
	e.exec.close()
	e.cache.clear()
	e.mu.Lock()
	e.graphs = make(map[string]*graphEntry)
	e.anon = make(map[weak.Pointer[graph.Graph]]uint64)
	e.mu.Unlock()
	// Unmap zero-copy snapshots LAST: the worker pool is drained and the
	// registry is cleared, so no reader can still touch borrowed CSR arrays.
	if e.store != nil {
		_ = e.store.ReleaseMappings()
	}
}

// --- Graph registry -------------------------------------------------------

// Register adds (or replaces) a named graph.  Replacing a name invalidates
// every substrate cached for the previous graph.  The graph must be
// finalized (every constructor in graph and gen finalizes); an unfinalized
// one is rejected with ErrInvalidRequest.  Mutate changes the registered
// topology through the graph's private overlay (see graph.Dynamic); g
// itself is never changed.
func (e *Engine) Register(name string, g *graph.Graph) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("%w: empty graph name", ErrInvalidRequest)
	}
	if err := checkGraph(g); err != nil {
		return GraphInfo{}, err
	}
	// Registrations are writes — reject while degraded.
	if err := e.checkWritable(); err != nil {
		return GraphInfo{}, err
	}
	// On a persistent engine the snapshot is written (durably, temp+rename)
	// before the registry publishes the name, so a graph the engine
	// acknowledged can never be missing after a crash.  ckptMu is held
	// across generation assignment, snapshot write AND publication: racing
	// registrations are serialized end-to-end, so generations publish in
	// order (a graph's gen never visibly decreases), the on-disk epoch
	// order always matches the registry's publication order (the losing
	// epoch can't remain on disk while the winner serves mutations), and a
	// concurrent checkpoint cannot interleave a rewrite.
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.Lock()
	e.nextGen++
	gen := e.nextGen
	e.mu.Unlock()
	dyn := graph.NewDynamic(g, 0)
	var epoch, covered uint64
	if e.store != nil {
		var err error
		if epoch, covered, err = e.persistRegistration(name, gen, dyn); err != nil {
			return GraphInfo{}, err
		}
	}
	e.mu.Lock()
	if old, ok := e.graphs[name]; ok {
		defer e.cache.purge(old.gen)
	}
	ent := &graphEntry{name: name, gen: gen, dyn: dyn, epoch: epoch, lastLSN: covered}
	e.graphs[name] = ent
	e.mu.Unlock()
	return ent.info(gen), nil
}

// checkGraph rejects a graph the engine cannot read: nil, or still under
// construction.
func checkGraph(g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("%w: nil graph", ErrInvalidRequest)
	}
	if !g.Finalized() {
		return fmt.Errorf("%w: graph is not finalized; call Finalize first", ErrInvalidRequest)
	}
	return nil
}

// Lookup returns the current topology of the graph registered under name:
// the registered *Graph itself while unmutated, a materialized immutable
// snapshot after mutations.
func (e *Engine) Lookup(name string) (*graph.Graph, bool) {
	e.mu.Lock()
	ent, ok := e.graphs[name]
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	return ent.dyn.Snapshot(), true
}

// Info returns the registered graph's current vertex/edge counts and cache
// generation without materializing a snapshot (a counter read, safe to call
// on every request — unlike Lookup, which merges a dirty overlay).
func (e *Engine) Info(name string) (GraphInfo, bool) {
	e.mu.Lock()
	ent, ok := e.graphs[name]
	e.mu.Unlock()
	if !ok {
		return GraphInfo{}, false
	}
	return e.entryInfo(ent), true
}

// Remove unregisters name and purges its cached substrates; ok reports
// whether the name was registered.  On a persistent engine the graph's
// snapshot is deleted too, so the removal survives a restart (orphaned WAL
// records of the removed graph are skipped at replay).  A non-nil error
// means the graph is gone from the live engine but its snapshot could not
// be deleted — a restart would resurrect it — so callers must not
// acknowledge the removal as durable.
func (e *Engine) Remove(name string) (ok bool, err error) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.Lock()
	ent, ok := e.graphs[name]
	var gen uint64
	if ok {
		delete(e.graphs, name)
		gen = ent.gen // read under the lock; Mutate may write concurrently
	}
	e.mu.Unlock()
	if ok {
		if e.store != nil {
			// ckptMu (held since entry) excludes the whole checkpoint
			// cycle, so no in-flight checkpoint write of this entry can
			// land after this deletion and resurrect the graph.
			if derr := e.store.DeleteSnapshot(name); derr != nil {
				e.stats.persistErrors.Add(1)
				err = fmt.Errorf("engine: graph %q removed but its snapshot was not deleted (a restart would restore it): %w", name, derr)
			}
		}
		e.cache.purge(gen)
	}
	return ok, err
}

// GraphCount returns the number of registered graphs (cheaper than Graphs
// for liveness probes).
func (e *Engine) GraphCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.graphs)
}

// Graphs lists the registered graphs sorted by name.
func (e *Engine) Graphs() []GraphInfo {
	e.mu.Lock()
	ents := make([]*graphEntry, 0, len(e.graphs))
	for _, ent := range e.graphs {
		ents = append(ents, ent)
	}
	e.mu.Unlock()
	out := make([]GraphInfo, len(ents))
	for i, ent := range ents {
		out[i] = e.entryInfo(ent)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// resolve maps a request to its graph and cache generation.
func (e *Engine) resolve(req Request) (*graph.Graph, uint64, error) {
	if req.G != nil {
		if err := checkGraph(req.G); err != nil {
			return nil, 0, err
		}
		return req.G, e.handleFor(req.G), nil
	}
	e.mu.Lock()
	ent, ok := e.graphs[req.Graph]
	e.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownGraph, req.Graph)
	}
	// Pair the topology with its generation atomically with respect to
	// mutations: Mutate holds mutMu across apply → generation bump → purge,
	// so under it the Dynamic's state corresponds exactly to the published
	// generation and no stale pre-purge cache entry can be paired with a
	// newer topology (or vice versa).  The first query after a delta pays
	// the one merged-CSR materialization here (cached inside the Dynamic;
	// Mutate itself never pays it); warm queries fetch a cached pointer.
	ent.mutMu.Lock()
	g := ent.dyn.Snapshot()
	e.mu.Lock()
	gen := ent.gen
	e.mu.Unlock()
	ent.mutMu.Unlock()
	return g, gen, nil
}

// handleFor assigns a cache generation to an unregistered finalized graph
// queried by pointer (the facade path).  A finalized graph cannot change,
// so its identity alone keys the generation.  The map key is a weak
// pointer, so the engine never keeps a caller's graph alive; weak pointers
// to distinct objects never compare equal, so a recycled allocation cannot
// be matched to a stale generation.
func (e *Engine) handleFor(g *graph.Graph) uint64 {
	wp := weak.Make(g)
	e.mu.Lock()
	defer e.mu.Unlock()
	if gen, ok := e.anon[wp]; ok {
		return gen
	}
	if len(e.anon) >= anonLimit {
		// Drop entries whose graphs have been collected; reset wholesale if
		// the table is full of live ones.  Every dropped handle's generation
		// is purged here — its graph's GC cleanup finds no handle anymore and
		// would otherwise leave the substrates orphaned in the LRU.
		for k, gen := range e.anon {
			if k.Value() == nil {
				delete(e.anon, k)
				e.cache.purge(gen)
			}
		}
		if len(e.anon) >= anonLimit {
			for _, gen := range e.anon {
				e.cache.purge(gen)
			}
			e.anon = make(map[weak.Pointer[graph.Graph]]uint64)
		}
	}
	e.nextGen++
	gen := e.nextGen
	e.anon[wp] = gen
	// When the graph is collected, release its cached substrates instead of
	// letting dead entries occupy LRU slots until capacity churn evicts
	// them.  If a wholesale reset dropped the graph's handle, a later query
	// adds a second cleanup; whichever runs first purges the current
	// generation and the other finds nothing.  The closure must not (and
	// does not) keep g reachable: it captures only the weak pointer and the
	// engine.
	runtime.AddCleanup(g, func(wp weak.Pointer[graph.Graph]) {
		e.mu.Lock()
		gen, ok := e.anon[wp]
		if ok {
			delete(e.anon, wp)
		}
		e.mu.Unlock()
		if ok {
			e.cache.purge(gen)
		}
	}, wp)
	return gen
}

// --- Substrate accessors --------------------------------------------------

// OrderFor returns the (cached) weak-reachability order for radius r,
// constructed exactly as the facade's BuildOrder: order.ConstructDefault.
// hit reports whether the order was served from cache.
func (e *Engine) OrderFor(g *graph.Graph, r int) (*order.Order, bool, error) {
	if err := checkGraph(g); err != nil {
		return nil, false, err
	}
	return e.orderFor(context.Background(), g, e.handleFor(g), r)
}

func (e *Engine) orderFor(ctx context.Context, g *graph.Graph, gen uint64, r int) (*order.Order, bool, error) {
	_, sp := obs.Start(ctx, "substrate:order")
	defer sp.End()
	v, hit, err := e.cache.getOrBuild(ctx, substrateKey{gen: gen, kind: kindOrder, a: r}, func() (any, error) {
		e.stage("substrate:order")
		return e.cache.timedBuild("order", func() any {
			opts := order.DefaultOptions(r)
			opts.Workers = e.cfg.SubstrateWorkers
			return order.Construct(g, opts).Order
		}), nil
	})
	if err != nil {
		return nil, hit, err
	}
	return v.(*order.Order), hit, nil
}

// wreachFor returns the (cached) sweep at radius s of the order for radius
// orderR, with the homes at radius min(orderR, s) — the substrate behind
// wcol measurements, the paper and dvorak sets and covers.  Building it
// reuses (or builds) the cached order.  The nested fetch runs under
// detached(ctx), without the requester's deadline: a build is shared
// work — if it adopted one requester's deadline, that requester's timeout
// would be recorded as the build's error and handed to every coalesced
// waiter.
func (e *Engine) wreachFor(ctx context.Context, g *graph.Graph, gen uint64, orderR, s int) (*order.Sweep, error) {
	_, sp := obs.Start(ctx, "substrate:wreach")
	defer sp.End()
	v, _, err := e.cache.getOrBuild(ctx, substrateKey{gen: gen, kind: kindWReach, a: orderR, b: s}, func() (any, error) {
		e.stage("substrate:wreach")
		o, _, err := e.orderFor(detached(ctx), g, gen, orderR)
		if err != nil {
			return nil, err
		}
		return e.cache.timedBuild("wreach", func() any {
			return order.WReachSweep(g, o, s, min(orderR, s), e.cfg.SubstrateWorkers)
		}), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*order.Sweep), nil
}

// withTimeout applies the request (or engine default) timeout to ctx.
func (e *Engine) withTimeout(ctx context.Context, req Request) (context.Context, context.CancelFunc) {
	d := req.Timeout
	if d <= 0 {
		d = e.cfg.DefaultTimeout
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}
