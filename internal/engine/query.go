package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bedom/internal/connect"
	"bedom/internal/cover"
	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/graph"
	"bedom/internal/obs"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// Kind selects the query pipeline.
type Kind string

// Query kinds.  The sequential kinds reproduce the facade pipelines
// bit-for-bit (same substrates, same algorithms); the distributed kinds run
// the simulator-backed pipelines of Theorems 9/10.
const (
	// KindDominatingSet is the sequential Theorem 5 pipeline.
	KindDominatingSet Kind = "domset"
	// KindConnectedDominatingSet is the sequential Corollary 13 pipeline.
	KindConnectedDominatingSet Kind = "cds"
	// KindCover is the sparse r-neighborhood cover of Theorem 4.
	KindCover Kind = "cover"
	// KindDistributedDominatingSet is the simulator-backed Theorem 9 pipeline.
	KindDistributedDominatingSet Kind = "dist-domset"
	// KindDistributedConnected is the simulator-backed Theorem 10 pipeline.
	KindDistributedConnected Kind = "dist-cds"
)

// MaxRadius is the largest radius a query may ask for: 2²⁵, the vertex
// bound of the graphs domserved registers, so no accepted graph has a path
// that long, and radii derived from it (2R+1 for cds, 7R rounds for kubsv)
// stay far from overflowing.
const MaxRadius = 1 << 25

// Request describes one domination query.
type Request struct {
	// Graph names a registered graph.  Ignored when G is set.
	Graph string `json:"graph,omitempty"`
	// G queries an unregistered graph directly (the facade path).  The graph
	// must not be mutated concurrently with the query.
	G *graph.Graph `json:"-"`
	// Kind selects the pipeline.
	Kind Kind `json:"kind"`
	// R is the domination / covering radius, in [1, MaxRadius].
	R int `json:"r"`
	// Solver selects the domination strategy ("" = the default paper
	// pipeline; see internal/solver for the registry).  Honoured by the
	// domset and dist-domset kinds; the remaining kinds are pinned to the
	// paper pipeline and reject other names.
	Solver string `json:"solver,omitempty"`
	// Timeout bounds this query (0 = the engine's DefaultTimeout).
	Timeout time.Duration `json:"-"`
	// IncludeClusters attaches the full cluster map to cover responses
	// (potentially large; off by default).
	IncludeClusters bool `json:"-"`
}

// Response is the outcome of a query.
type Response struct {
	// Graph echoes the registered name ("" for direct-graph queries).
	Graph string `json:"graph,omitempty"`
	// Kind and R echo the request.
	Kind Kind `json:"kind"`
	R    int  `json:"r"`
	// Solver is the strategy that served a solver-dispatched kind (empty for
	// kinds pinned to the paper pipeline).
	Solver string `json:"solver,omitempty"`

	// Set is the computed (connected) dominating set (nil for cover queries).
	// A sequential kind's Set is the cached answer's slice: read it, never
	// write to it (the facade copies it).
	Set []int `json:"set,omitempty"`
	// Size is len(Set), or the number of clusters for cover queries.
	Size int `json:"size"`
	// LowerBound is the certified lower bound on the optimum (sequential
	// domination kinds).
	LowerBound int `json:"lower_bound,omitempty"`
	// Wcol is the measured weak colouring number backing the approximation
	// guarantee (sequential domination kinds).
	Wcol int `json:"wcol,omitempty"`

	// DomSet is, for connected kinds, the underlying plain dominating set
	// (nil for the other kinds).  Like Set, a cds DomSet is the cached
	// answer's slice and read-only.
	DomSet []int `json:"dom_set,omitempty"`

	// Cover statistics (cover queries only).
	CoverDegree    int `json:"cover_degree,omitempty"`
	CoverMaxRadius int `json:"cover_max_radius,omitempty"`
	// Clusters maps cluster centers to cluster vertex sets; only populated
	// for cover queries with IncludeClusters, whose first request for the
	// cached answer inverts them.  The map is fresh per response but its
	// value slices are shared with the substrate cache and must not be
	// mutated (the facade copies them).
	Clusters map[int][]int `json:"clusters,omitempty"`

	// Simulator cost (distributed kinds only).
	Rounds          int   `json:"rounds,omitempty"`
	Messages        int64 `json:"messages,omitempty"`
	MaxMessageWords int   `json:"max_message_words,omitempty"`

	// CacheHit reports whether the answer came from the cache, by a hit or
	// by waiting on a concurrent query's build of it.  It is false for a
	// query that computed its answer, even when every substrate it read was
	// cached, and always false for the distributed kinds, which are never
	// cached.
	CacheHit bool `json:"cache_hit"`
	// ElapsedMS is the query's wall-clock execution time in milliseconds
	// (excluding time spent queued for a worker).
	ElapsedMS float64 `json:"elapsed_ms"`

	// answer is the cache entry a sequential response came from; AppendJSON
	// copies in its encoded arrays while Set and DomSet are still its
	// slices.  g is the graph the query read, which a cover answer's
	// inversion sweeps: the cached answer keeps no graph, so that it never
	// keeps a facade graph alive.
	answer *answer
	g      *graph.Graph
}

// CoverData returns the underlying cover structure of a cover query (nil
// for the other kinds).  The first call for a cached answer inverts its
// clusters, which fails only if the order it sweeps fails to build; the
// structure is shared with the substrate cache and must not be mutated.
func (r *Response) CoverData() (*cover.Cover, error) {
	if r.answer == nil || r.answer.cover == nil {
		return nil, nil
	}
	return r.answer.cover(context.Background(), r.g)
}

// Do executes one query on the worker pool and blocks until it completes,
// the (request or engine default) timeout expires, or ctx is cancelled.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	s, err := e.validate(req)
	if err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	g, gen, err := e.resolve(req)
	if err != nil {
		e.stats.errors.Add(1)
		return nil, err
	}
	ctx, cancel := e.withTimeout(ctx, req)
	defer cancel()

	// Count the query under its (kind, solver) labels BEFORE it runs: cache
	// hits are recorded mid-run, so counting first keeps the "hits ≤
	// queries" invariant observable in every Stats snapshot (which loads
	// hits before the query counters).
	solverLabel := ""
	if s != nil {
		solverLabel = s.Name()
	}
	e.stats.queries.With(string(req.Kind), solverLabel).Inc()
	latency := e.stats.querySeconds.With(string(req.Kind), solverLabel)

	var resp *Response
	var qerr error
	err = e.exec.submit(ctx, func() {
		start := time.Now()
		// Second recovery layer (the first lives inside the substrate cache's
		// single-flight build): pipeline stages that run outside a cached
		// build — distributed kinds, response assembly — panic straight
		// through to the worker goroutine, which must never die with the
		// process.  The panic fails only this query.
		defer func() {
			if p := recover(); p != nil {
				e.stats.queryPanics.Inc()
				slog.Error("query panicked",
					"query_id", obs.QueryID(ctx), "kind", string(req.Kind),
					"panic", p, "stack", string(debug.Stack()))
				resp, qerr = nil, fmt.Errorf("%w: kind %s: %v", ErrQueryPanic, req.Kind, p)
			}
			elapsed := time.Since(start)
			latency.ObserveDuration(elapsed)
			if resp != nil {
				resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
			}
		}()
		resp, qerr = e.run(ctx, req, s, g, gen)
		if qerr == nil && ctx.Err() != nil {
			// The pipeline finished, but only after the caller's deadline
			// expired mid-run (substrate builds are not interruptible — the
			// result stays cached for the next query).  The deadline is the
			// contract: report it rather than hand back a late response.
			resp, qerr = nil, ctx.Err()
		}
	})
	if err == nil {
		err = qerr
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			// Counts deadlines wherever they expired: at admission, queued, or
			// mid-run inside a substrate build (the stages observe ctx at every
			// boundary and coalesced waiters stop waiting on expiry).
			e.stats.timeouts.Inc()
		case errors.Is(err, ErrOverloaded):
			e.stats.shed.Inc()
		}
		e.stats.errors.Inc()
		return nil, err
	}
	return resp, nil
}

// validate checks req and resolves its strategy: the registry's for the
// kinds that dispatch through it (domset, dist-domset), nil for the kinds
// pinned to the paper pipeline.
func (e *Engine) validate(req Request) (solver.Solver, error) {
	if req.R < 1 || req.R > MaxRadius {
		return nil, fmt.Errorf("%w: radius must be in [1, %d], got %d", ErrInvalidRequest, MaxRadius, req.R)
	}
	if req.G == nil && req.Graph == "" {
		return nil, fmt.Errorf("%w: no graph given", ErrInvalidRequest)
	}
	switch req.Kind {
	case KindDominatingSet, KindDistributedDominatingSet:
		s, err := solver.Get(req.Solver)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		if _, ok := s.(solver.DistSolver); !ok && req.Kind == KindDistributedDominatingSet {
			return nil, fmt.Errorf("%w: solver %q has no distributed engine (distributed solvers: %s)",
				ErrInvalidRequest, s.Name(), strings.Join(solver.DistNames(), ", "))
		}
		return s, nil
	case KindConnectedDominatingSet, KindCover, KindDistributedConnected:
		// The connected and cover pipelines are paper-specific.
		if req.Solver != "" && req.Solver != solver.DefaultName {
			return nil, fmt.Errorf("%w: kind %q supports only the default %q pipeline, got solver %q",
				ErrInvalidRequest, req.Kind, solver.DefaultName, req.Solver)
		}
		return nil, nil
	}
	return nil, fmt.Errorf("%w: unknown kind %q", ErrInvalidRequest, req.Kind)
}

// kindStages names each kind's query span and stage hook and, for a
// sequential kind, its answer's span and hook and the label its build time
// is recorded under.
var kindStages = map[Kind]struct{ query, answer, label string }{
	KindDominatingSet:            {"query:domset", "substrate:domset", "solve"},
	KindConnectedDominatingSet:   {"query:cds", "substrate:cds", "solve"},
	KindCover:                    {"query:cover", "substrate:cover", "cover"},
	KindDistributedDominatingSet: {query: "query:dist-domset"},
	KindDistributedConnected:     {query: "query:dist-cds"},
}

// run executes the query pipeline on the calling (worker) goroutine with
// the strategy validate resolved.  The individual stages are not
// interruptible, but a cancelled or timed-out context is observed at every
// stage boundary so an abandoned query releases its worker as early as
// possible.
func (e *Engine) run(ctx context.Context, req Request, s solver.Solver, g *graph.Graph, gen uint64) (*Response, error) {
	names := kindStages[req.Kind]
	sp := obs.Start(ctx, names.query)
	defer sp.End()
	e.stage(names.query)
	if names.answer == "" {
		return e.distributed(ctx, req, s, g)
	}
	a, hit, err := e.answerFor(ctx, g, gen, req, s, names.answer, names.label)
	if err != nil {
		return nil, err
	}
	resp := a.resp
	resp.Graph = req.Graph
	resp.CacheHit = hit
	resp.answer, resp.g = a, g
	if req.IncludeClusters && a.cover != nil {
		c, err := a.cover(ctx, g)
		if err != nil {
			return nil, err
		}
		resp.Clusters = c.ClusterMap()
	}
	return &resp, nil
}

// distributed runs a distributed kind on the simulator: dist-domset through
// its strategy's protocol, dist-cds through the Theorem 10 pipeline.  Each
// runs in its pipeline's model (CONGEST_BC for dist-cds and the paper
// dist-domset, LOCAL for kubsv) on the round schedule that r and the graph
// fix; the deployment's SubstrateWorkers bounds its goroutines per round, as
// it bounds every other build a query runs.  The probe's round profiles are
// retained under the query ID (see recordDistRun).
func (e *Engine) distributed(ctx context.Context, req Request, s solver.Solver, g *graph.Graph) (*Response, error) {
	resp := &Response{Graph: req.Graph, Kind: req.Kind, R: req.R}
	probe := &dist.Probe{}
	sim := dist.Options{Workers: e.cfg.SubstrateWorkers, Probe: probe}
	var res solver.DistResult
	var err error
	switch {
	case req.Kind == KindDistributedDominatingSet:
		resp.Solver = s.Name()
		res, err = s.(solver.DistSolver).SolveDist(g, req.R, sim)
	case !g.IsConnected():
		return nil, ErrNotConnected
	default:
		var cr *distalgo.ConnectedResult
		if cr, err = distalgo.RunConnectedDomSet(g, req.R, dist.CongestBC, sim); err == nil {
			res, resp.DomSet = solver.DistResult{Set: cr.Set, Stats: cr.Stats}, cr.DomSet
		}
	}
	e.recordDistRun(ctx, req, resp.Solver, probe, err)
	if err != nil {
		return nil, err
	}
	resp.Set, resp.Size = res.Set, len(res.Set)
	resp.Rounds, resp.Messages, resp.MaxMessageWords = res.Stats.Rounds, res.Stats.Messages, res.Stats.MaxMessageWords
	return resp, nil
}

// answer is the kindAnswer substrate: the response of a sequential query
// for one (graph generation, kind, radius, solver), with its set and
// dom_set as JSON arrays, each encoded at most once, by the first response
// that needs it (facade and engine-only callers never pay for it), and a
// cover answer's clusters, likewise inverted at most once.  The bytes and
// clusters live and die with the cache entry.
type answer struct {
	resp        Response
	set, domSet jsonArray
	// cover returns a cover answer's cover of g, the graph the answer was
	// built for, inverting it on the first successful call (nil for the
	// other kinds).
	cover func(ctx context.Context, g *graph.Graph) (*cover.Cover, error)
}

// jsonArray is the JSON array of an int slice, encoded on first use.
type jsonArray struct {
	once sync.Once
	b    []byte
}

func (a *jsonArray) bytes(s []int) []byte {
	a.once.Do(func() { a.b = appendInts(nil, s) })
	return a.b
}

// answerFor returns the (cached) answer to a sequential query, built as
// the stage name and timed under label.  Answers are substrates like
// orders: keyed by (generation, kind, radius, solver), they invalidate on
// mutation and re-registration exactly like the substrates they were
// computed from, including across WAL replay, where recovered graphs start
// a fresh generation.  hit reports whether the answer came from the cache,
// by a hit or a coalesced wait.
func (e *Engine) answerFor(ctx context.Context, g *graph.Graph, gen uint64, req Request, s solver.Solver, name, label string) (*answer, bool, error) {
	key := substrateKey{gen: gen, kind: kindAnswer, a: req.R, query: req.Kind}
	if s != nil {
		key.solver = s.Name()
	}
	v, hit, err := e.fetch(ctx, key, name, label, func(ctx context.Context) (any, error) {
		a := &answer{resp: Response{Kind: req.Kind, R: req.R}}
		var err error
		switch req.Kind {
		case KindDominatingSet:
			err = e.solve(ctx, g, gen, req.R, s, &a.resp)
		case KindConnectedDominatingSet:
			err = e.connectedAnswer(ctx, g, gen, req.R, &a.resp)
		case KindCover:
			err = e.coverAnswer(ctx, g, gen, req.R, a)
		}
		if err != nil {
			return nil, err
		}
		return a, nil
	})
	a, _ := v.(*answer)
	return a, hit, err
}

// connectedAnswer computes the Corollary 13 answer for radius r into resp.
// One radius-(2r+1) witness traversal of the cached order for 2r+1 serves
// wcol_{2r+1}, the dominating set (the distinct homes at radius r) and the
// closure's witness paths.  Only this build reads the traversal's parent
// column, so the traversal is an uncached step that keeps the wreach span,
// stage hook and build-time label; the rest of the build counts as solve
// time.
func (e *Engine) connectedAnswer(ctx context.Context, g *graph.Graph, gen uint64, r int, resp *Response) error {
	if !g.IsConnected() {
		return ErrNotConnected
	}
	o, _, err := e.orderFor(ctx, g, gen, 2*r+1)
	if err != nil {
		return err
	}
	v, err := e.step(ctx, "substrate:wreach", "wreach", func(context.Context) (any, error) {
		return order.WReachWitnesses(g, o, 2*r+1, r, e.cfg.SubstrateWorkers), nil
	})
	if err != nil {
		return err
	}
	wits := v.(*order.Witnesses)
	D := domset.FromHomes(wits.Homes)
	resp.DomSet = D
	resp.Set = connect.ClosureOf(wits, D)
	resp.Size = len(resp.Set)
	resp.LowerBound = domset.ScatteredLowerBound(g, r, D)
	resp.Wcol = wits.Max
	return nil
}

// coverAnswer answers the Theorem 4 cover for radius r into a from one
// cached summary, the (r, 2r) one the paper solver also reads.  Every
// vertex is in its own set, so it centers a cluster: the cover's size is
// n, its degree the largest set (wcol_2r) and its radius the sweep's
// depth.  The clusters are built only when a request reads them, once per
// cached answer: one full (r, 2r) sweep of the cached order, its sets
// inverted and its homes the cover's Home, timed under the cover label.
// The inversion takes the graph from its reader, because a cached answer
// that kept g would keep a facade graph alive past the cleanup that purges
// its substrates (see handleFor).
func (e *Engine) coverAnswer(ctx context.Context, g *graph.Graph, gen uint64, r int, a *answer) error {
	sum, err := e.wreachFor(ctx, g, gen, r, 2*r)
	if err != nil {
		return err
	}
	a.resp.Size, a.resp.CoverDegree, a.resp.CoverMaxRadius = g.N(), sum.Max, sum.Depth
	var mu sync.Mutex
	var c *cover.Cover
	a.cover = func(ctx context.Context, g *graph.Graph) (*cover.Cover, error) {
		mu.Lock()
		defer mu.Unlock()
		if c != nil {
			return c, nil
		}
		o, _, err := e.orderFor(ctx, g, gen, r)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sw := order.WReachSweep(g, o, 2*r, r, e.cfg.SubstrateWorkers)
		c = cover.BuildFromHomes(r, sw.Homes, sw.Sets, e.cfg.SubstrateWorkers)
		e.stats.buildSeconds.With("cover").ObserveSince(start)
		return c, nil
	}
	return nil
}

// BatchResult pairs one batch entry's response with its error.
type BatchResult struct {
	Response *Response
	Err      error
}

// Batch fans the requests across the worker pool and waits for all of them.
// Results keep the request order; each entry fails or succeeds on its own.
// Identical concurrent entries share substrate builds via single-flight.
// At most Workers entries are submitted at once, so a batch never fills the
// admission queue by itself and sheds only under load from other callers.
// A distributed entry i is retained as "<query ID>.<i>" (see DistRun).
func (e *Engine) Batch(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(e.cfg.Workers, len(reqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				resp, err := e.Do(context.WithValue(ctx, batchEntryKey{}, i), reqs[i])
				out[i] = BatchResult{Response: resp, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
