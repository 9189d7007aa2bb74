// Package solver defines the pluggable domination strategies behind the
// engine and the facade.  A Solver computes a distance-r dominating set
// sequentially, drawing the expensive shared substrates (weak-reachability
// orders and sweep summaries) from a Substrate so that strategies on the
// same graph reuse one cached order and one summary per radius: the paper
// strategy reads both wcol_2r and Algorithm 1's set off the (r, 2r)
// summary, whose homes are the set, and the engine's cover reads the same
// summary.  A DistSolver
// additionally runs a simulator-backed distributed protocol, in the model
// its result is stated for.  The registry is a fixed table keyed by a
// stable name — the engine keys its per-graph result cache by that name,
// so different strategies never cross-contaminate.
//
// Registered strategies:
//
//	paper         the SPAA 2018 pipeline (Theorem 5 / Theorem 9) — default
//	kubsv         constant-round election + cleanup (Kublenz–Siebertz–Vigny)
//	dvorak        order-driven linear-time approximation (Dvořák-style)
//	greedy        classical ln(n) greedy baseline
//	order-greedy  first-uncovered-in-order baseline
package solver

import (
	"context"
	"fmt"
	"strings"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// DefaultName is the strategy used when no solver name is given.
const DefaultName = "paper"

// Substrate supplies the shared, cacheable inputs a Solver may draw on.  The
// engine backs it with its LRU substrate cache; Local computes on demand.
// Implementations memoize, so repeated fetches are cheap; they need not be
// safe for concurrent use unless documented.
type Substrate interface {
	// Order returns the weak-reachability order for radius r.
	Order(ctx context.Context, r int) (*order.Order, error)
	// WReach returns the summary of the sweep at radius s of the
	// radius-orderR order: each vertex's home at radius min(orderR, s), the
	// largest set (the order's measured wcol_s) and the sweep's depth.
	WReach(ctx context.Context, orderR, s int) (*order.Summary, error)
}

// Result is the outcome of a sequential solve.
type Result struct {
	// Set is the computed distance-r dominating set, sorted.
	Set []int
	// LowerBound is a certified lower bound on the optimum size.
	LowerBound int
	// Wcol is the measured weak colouring number backing the strategy's
	// approximation guarantee (0 for strategies with no order-based bound).
	Wcol int
}

// Solver is one sequential domination strategy.
type Solver interface {
	// Name is the stable registry key ("paper", "kubsv", ...).
	Name() string
	// Solve computes a distance-r dominating set of g.  Fetches from sub
	// take the ctx Solve was given.  The returned Result may be cached by
	// the caller and must not be mutated afterwards.
	Solve(ctx context.Context, g *graph.Graph, r int, sub Substrate) (Result, error)
}

// DistResult is the outcome of a distributed solve.
type DistResult struct {
	// Set is the computed distance-r dominating set, sorted.
	Set []int
	// Stats is the simulator cost, summed over the protocol's phases.
	Stats dist.Stats
}

// DistSolver is a Solver that also has a simulator-backed distributed
// protocol.  Each strategy runs in its own model (CONGEST_BC for the paper
// pipeline, LOCAL for kubsv); sim sets only the simulator's workers, round
// guard and probe.
type DistSolver interface {
	Solver
	SolveDist(g *graph.Graph, r int, sim dist.Options) (DistResult, error)
}

// --- Registry -------------------------------------------------------------

// registry holds every strategy, sorted by name.
var registry = []Solver{dvorakSolver{}, greedySolver{}, ksvSolver{}, orderGreedySolver{}, paperSolver{}}

// Get resolves a solver name ("" selects DefaultName).  An unknown name
// fails with an error listing the registered strategies (surfaced verbatim
// by domserved's 400 responses).
func Get(name string) (Solver, error) {
	if name == "" {
		name = DefaultName
	}
	for _, s := range registry {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown solver %q (registered: %s)", name, strings.Join(Names(), ", "))
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name()
	}
	return out
}

// DistNames lists the registered strategies that implement DistSolver,
// sorted.
func DistNames() []string {
	var out []string
	for _, s := range registry {
		if _, ok := s.(DistSolver); ok {
			out = append(out, s.Name())
		}
	}
	return out
}

// --- Local substrate ------------------------------------------------------

// Local is a self-contained Substrate: it computes orders and
// weak-reachability summaries on demand and memoizes them for its own lifetime.
// It backs the experiment harness and tests; the engine substitutes its
// LRU-cached implementation.  Not safe for concurrent use.
type Local struct {
	g       *graph.Graph
	workers int
	orders  map[int]*order.Order
	wreach  map[[2]int]*order.Summary
}

// NewLocal returns a Local substrate over g.  workers bounds the goroutines
// per construction (0 = GOMAXPROCS); outputs are identical for every value.
func NewLocal(g *graph.Graph, workers int) *Local {
	return &Local{
		g:       g,
		workers: workers,
		orders:  make(map[int]*order.Order),
		wreach:  make(map[[2]int]*order.Summary),
	}
}

// Order implements Substrate.
func (l *Local) Order(_ context.Context, r int) (*order.Order, error) {
	if o, ok := l.orders[r]; ok {
		return o, nil
	}
	opts := order.DefaultOptions(r)
	opts.Workers = l.workers
	o := order.Construct(l.g, opts).Order
	l.orders[r] = o
	return o, nil
}

// WReach implements Substrate.
func (l *Local) WReach(ctx context.Context, orderR, s int) (*order.Summary, error) {
	key := [2]int{orderR, s}
	if sw, ok := l.wreach[key]; ok {
		return sw, nil
	}
	o, err := l.Order(ctx, orderR)
	if err != nil {
		return nil, err
	}
	sw := order.WReachSummary(l.g, o, s, min(orderR, s), l.workers)
	l.wreach[key] = sw
	return sw, nil
}
