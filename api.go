// Package bedom is a Go implementation of the algorithms of
//
//	"Distributed Domination on Graph Classes of Bounded Expansion"
//	S.A. Amiri, P. Ossona de Mendez, R. Rabinovich, S. Siebertz (SPAA 2018)
//
// It provides constant-factor approximation algorithms for the (connected)
// DISTANCE-r DOMINATING SET problem on graph classes of bounded expansion —
// both as fast sequential algorithms and as distributed algorithms for the
// LOCAL / CONGEST_BC models running on a built-in round-based
// simulator — together with the substrates they rely on: generalized
// colouring numbers (weak reachability orders), sparse r-neighborhood
// covers, graph generators for bounded-expansion families, baselines
// (classical greedy, order-greedy, the Lenzen et al. planar LOCAL algorithm)
// and exact solvers / lower bounds for measuring approximation ratios.
//
// The package is a facade: the implementation lives in the internal/
// packages (graph, gen, order, cover, domset, connect, dist, distalgo,
// solver), and this API wires them together along the paper's pipelines.
//
// # Graphs
//
// A Graph has one lifecycle: NewGraph and AddEdge build it, Finalize packs
// it into its canonical sorted layout, and from then on it is read-only.
// FromEdges, ReadGraph and the generators return finalized graphs.  Every
// query reads only finalized graphs: the error-returning functions reject
// a graph queried before Finalize, the others panic, and AddEdge on a
// finalized graph returns an error.  Answers therefore depend only on the
// edge set, never on the order the edges were added in.  To change a
// topology, build a new graph; domserved applies deltas to its registered
// graphs through the engine's graph.Dynamic.
//
// # Quick start
//
//	g := bedom.Grid(32, 32)
//	res, err := bedom.DominatingSet(g, 2)              // Theorem 5
//	cds, err := bedom.ConnectedDominatingSet(g, 2)     // Corollary 13
//	dres, err := bedom.DistributedDominatingSet(g, 2)  // Theorem 9 (CONGEST_BC)
//
// The domination pipeline is pluggable: DominatingSetWith selects among the
// registered solver strategies (see Solvers) — the paper's Algorithm 1
// ("paper", the default), a Dvořák-style linear sweep ("dvorak"), the
// Kublenz–Siebertz–Vigny constant-round algorithm ("kubsv") and the
// classical baselines ("greedy", "order-greedy"):
//
//	alt, err := bedom.DominatingSetWith(g, 2, "kubsv")
//
// See the examples/ directory for complete programs.
package bedom

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"bedom/internal/connect"
	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/engine"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// defaultEngine is the process-wide query engine behind the one-shot facade
// functions (see internal/engine and DESIGN.md §5): repeated queries on the
// same graph reuse the cached weak-reachability orders, wcol measurements
// and covers instead of rebuilding them, and concurrent identical queries
// coalesce onto a single substrate construction.  The cache is keyed by
// graph identity alone, since a finalized graph cannot change, so callers
// that never repeat a (graph, radius) pair see unchanged behavior.
var defaultEngine = sync.OnceValue(func() *engine.Engine {
	return engine.New(engine.Config{})
})

// Graph is an undirected simple graph with vertices 0..n-1.
type Graph = graph.Graph

// Order is a linear order on the vertex set witnessing small weak colouring
// numbers; it drives every algorithm of the paper.
type Order = order.Order

// Model selects the distributed communication model.
type Model = dist.Model

// Communication models of the simulator (see the paper's §2).  In both a
// vertex broadcasts at most one message per round.
const (
	// LOCAL allows messages of any size.
	LOCAL = dist.Local
	// CONGESTBC allows one O(log n)-bit broadcast per vertex per round; this
	// is the model all of the paper's CONGEST-style results use.
	CONGESTBC = dist.CongestBC
)

// SetSubstrateWorkers bounds the number of goroutines the default engine
// uses inside one substrate build (order augmentation scans, parallel
// weak-reachability sweeps, cover inversion).  0 restores the default
// (GOMAXPROCS).  Substrate outputs are bit-identical for every worker
// count — the knob only trades build latency against CPU share, so it is
// safe to change at any time.
func SetSubstrateWorkers(workers int) {
	defaultEngine().SetSubstrateWorkers(workers)
}

// NewGraph returns an empty graph on n vertices.  Add its edges with
// AddEdge, then call Finalize before querying it.
func NewGraph(n int) *Graph { return graph.New(n) }

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadGraph parses a graph in the library's edge-list format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes a finalized graph in the library's edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Grid returns the rows×cols planar grid graph (a convenient bounded
// expansion test instance).  The internal/gen package offers many more
// families (trees, outerplanar, Apollonian, k-trees, geometric, Chung–Lu,
// configuration model, ...).
func Grid(rows, cols int) *Graph { return gen.Grid(rows, cols) }

// BuildOrder computes a linear order intended to witness a small weak
// 2r-colouring number (the sequential substitute for Theorem 2), using
// degeneracy ordering plus distance-truncated transitive–fraternal
// augmentations.  Orders are cached per (graph, radius) by the default
// engine.  Like every reader, it panics on a graph that is not finalized.
func BuildOrder(g *Graph, r int) *Order {
	o, _, err := defaultEngine().OrderFor(g, r)
	if err != nil {
		// Order construction cannot fail (and OrderFor runs without a
		// deadline): the engine refused an unfinalized graph.
		panic(err)
	}
	return o
}

// WeakColouringNumber returns the measured wcol_s(G, L) = max_v
// |WReach_s[G, L, v]| of an order, the constant that controls all
// approximation factors of the paper.
func WeakColouringNumber(g *Graph, o *Order, s int) int { return order.WColMeasure(g, o, s) }

// SequentialResult is the outcome of a sequential dominating set
// computation.
type SequentialResult struct {
	// R is the domination radius.
	R int
	// Set is the computed distance-r dominating set.
	Set []int
	// LowerBound is a certified lower bound on the optimum size.
	LowerBound int
	// Wcol2R is the measured weak 2r-colouring number of the order used; the
	// paper's Theorem 5 guarantees |Set| ≤ Wcol2R · OPT.  Strategies that use
	// a different (or no) order report their own bound constant here: dvorak
	// reports wcol_r, the order-free strategies (greedy, kubsv) report 0.
	Wcol2R int
	// Solver names the strategy that produced the set (see Solvers).
	Solver string
}

// Ratio returns |Set| / LowerBound (0 if the lower bound is 0).
func (r SequentialResult) Ratio() float64 {
	if r.LowerBound == 0 {
		return 0
	}
	return float64(len(r.Set)) / float64(r.LowerBound)
}

// DominatingSet computes a distance-r dominating set with the paper's
// sequential c(r)-approximation (Theorem 5, Algorithm 1).  The expensive
// substrates (order, wcol) are cached by the default engine, so repeated
// calls on the same graph are much faster than the first.
func DominatingSet(g *Graph, r int) (SequentialResult, error) {
	return DominatingSetWith(g, r, "")
}

// Solvers lists the registered dominating-set strategies, sorted by name.
// Every name is accepted by DominatingSetWith; currently: "dvorak",
// "greedy", "kubsv", "order-greedy" and "paper" (the default).
func Solvers() []string { return solver.Names() }

// DominatingSetWith computes a distance-r dominating set with the named
// solver strategy ("" selects the default, the paper pipeline).  All
// strategies return a valid distance-r dominating set together with a
// certified scattered-set lower bound; they differ in approximation
// guarantee and cost.  Results are cached per (graph, radius, solver) by
// the default engine.
func DominatingSetWith(g *Graph, r int, solverName string) (SequentialResult, error) {
	if r < 1 {
		return SequentialResult{}, fmt.Errorf("bedom: radius must be ≥ 1, got %d", r)
	}
	resp, err := defaultEngine().Do(context.Background(), engine.Request{
		G: g, Kind: engine.KindDominatingSet, R: r, Solver: solverName,
	})
	if err != nil {
		return SequentialResult{}, err
	}
	return SequentialResult{
		R:          r,
		Set:        resp.Set,
		LowerBound: resp.LowerBound,
		Wcol2R:     resp.Wcol,
		Solver:     resp.Solver,
	}, nil
}

// ConnectedDominatingSet computes a connected distance-r dominating set with
// the sequential version of the paper's Theorem 10 pipeline (order for
// 2r+1, Algorithm 1, weak-reachability closure of Corollary 13).  The input
// graph must be connected.
func ConnectedDominatingSet(g *Graph, r int) (SequentialResult, error) {
	if r < 1 {
		return SequentialResult{}, fmt.Errorf("bedom: radius must be ≥ 1, got %d", r)
	}
	// Connectivity is validated inside the engine pipeline (one BFS, not two).
	resp, err := defaultEngine().Do(context.Background(), engine.Request{
		G: g, Kind: engine.KindConnectedDominatingSet, R: r,
	})
	if err != nil {
		// Keep the facade's error namespace for the documented failure mode.
		if errors.Is(err, engine.ErrNotConnected) {
			return SequentialResult{}, errNotConnected
		}
		return SequentialResult{}, err
	}
	return SequentialResult{
		R:          r,
		Set:        resp.Set,
		LowerBound: resp.LowerBound,
		Wcol2R:     resp.Wcol,
	}, nil
}

// IsDominatingSet reports whether D is a distance-r dominating set of g.
func IsDominatingSet(g *Graph, D []int, r int) bool { return domset.Check(g, D, r) }

// IsConnectedDominatingSet reports whether D is a connected distance-r
// dominating set of g.
func IsConnectedDominatingSet(g *Graph, D []int, r int) bool {
	return connect.CheckConnected(g, D, r)
}

// GreedyDominatingSet is the classical ln(n)-approximation baseline.
func GreedyDominatingSet(g *Graph, r int) []int { return domset.Greedy(g, r) }

// CoverResult describes a sparse r-neighborhood cover (Theorem 4 / 8).
type CoverResult struct {
	// R is the covering radius: every closed r-neighborhood is contained in
	// some cluster.
	R int
	// Clusters maps cluster centers to cluster vertex sets.
	Clusters map[int][]int
	// Degree is the maximum number of clusters containing a single vertex.
	Degree int
	// MaxRadius is the maximum cluster radius (at most 2r).
	MaxRadius int
}

// NeighborhoodCover computes the sparse r-neighborhood cover of Theorem 4
// from a weak-reachability order.  The cover is cached by the default
// engine; the returned clusters are a private copy the caller may modify.
func NeighborhoodCover(g *Graph, r int) (CoverResult, error) {
	if r < 1 {
		return CoverResult{}, fmt.Errorf("bedom: radius must be ≥ 1, got %d", r)
	}
	resp, err := defaultEngine().Do(context.Background(), engine.Request{
		G: g, Kind: engine.KindCover, R: r,
	})
	if err != nil {
		return CoverResult{}, err
	}
	c := resp.CoverData()
	clusters := make(map[int][]int, c.NumClusters())
	for _, center := range c.Centers() {
		clusters[center] = append([]int(nil), c.Cluster(center)...)
	}
	return CoverResult{R: r, Clusters: clusters, Degree: resp.CoverDegree, MaxRadius: resp.CoverMaxRadius}, nil
}

// DistributedOptions tunes the simulator runs of the distributed API.
type DistributedOptions struct {
	// Model selects the communication model.  Note that the zero value of
	// Model is LOCAL, not the CONGEST_BC model the paper's algorithms assume;
	// a zero DistributedOptions therefore runs in LOCAL.  Use
	// DefaultDistributedOptions (the recommended path) to get CONGEST_BC, or
	// set Model explicitly.
	Model Model
	// Workers bounds the number of goroutines the simulator uses per round
	// (0 = GOMAXPROCS).
	Workers int
	// MaxRounds aborts runaway algorithms (0 = generous default).
	MaxRounds int
	// RefinedOrder selects the refined distributed order computation (a
	// relayed H-partition on the weak-reachability shortcut graph, closer to
	// the full Theorem 3 pipeline) instead of the plain H-partition order for
	// DistributedDominatingSet.  It costs more rounds — O(r·log n) instead of
	// O(log n) — and typically yields smaller dominating sets.  Only the
	// "paper" solver honours it.
	RefinedOrder bool
	// Solver names the distributed strategy for DistributedDominatingSet
	// ("" selects the paper pipeline).  Strategies implementing the
	// distributed interface: "paper" (Theorem 9, CONGEST_BC in
	// O(log n) rounds) and "kubsv" (Kublenz–Siebertz–Vigny, exactly 7r
	// LOCAL/CONGEST_BC rounds).
	Solver string
}

// DefaultDistributedOptions returns the options used by the paper's
// algorithms: the CONGEST_BC model.
func DefaultDistributedOptions() DistributedOptions {
	return DistributedOptions{Model: CONGESTBC}
}

func (o DistributedOptions) simOptions() dist.Options {
	return dist.Options{Workers: o.Workers, MaxRounds: o.MaxRounds}
}

// DistributedResult is the outcome of a distributed computation together
// with its communication cost.
type DistributedResult struct {
	// R is the domination radius.
	R int
	// Set is the computed (connected) distance-r dominating set.
	Set []int
	// DomSet is, for connected computations, the underlying plain
	// distance-r dominating set; equal to Set otherwise.
	DomSet []int
	// Rounds is the total number of communication rounds across all phases.
	Rounds int
	// Messages is the total number of delivered messages.
	Messages int64
	// MaxMessageWords is the largest message in O(log n)-bit words.
	MaxMessageWords int
}

// DistributedDominatingSet runs the paper's Theorem 9 pipeline (distributed
// order computation, Algorithm 4, dominator election) on the simulator, via
// the default engine's worker pool.
func DistributedDominatingSet(g *Graph, r int, opts ...DistributedOptions) (DistributedResult, error) {
	opt := pickOpts(opts)
	resp, err := defaultEngine().Do(context.Background(), engine.Request{
		G: g, Kind: engine.KindDistributedDominatingSet, R: r,
		Model: opt.Model, ModelSet: true,
		SimWorkers: opt.Workers, MaxRounds: opt.MaxRounds,
		RefinedOrder: opt.RefinedOrder, Solver: opt.Solver,
	})
	if err != nil {
		return DistributedResult{}, err
	}
	return DistributedResult{
		R:               r,
		Set:             resp.Set,
		DomSet:          resp.DomSet,
		Rounds:          resp.Rounds,
		Messages:        resp.Messages,
		MaxMessageWords: resp.MaxMessageWords,
	}, nil
}

// DistributedConnectedDominatingSet runs the paper's Theorem 10 pipeline in
// the CONGEST_BC model (or the model given in opts).
func DistributedConnectedDominatingSet(g *Graph, r int, opts ...DistributedOptions) (DistributedResult, error) {
	opt := pickOpts(opts)
	resp, err := defaultEngine().Do(context.Background(), engine.Request{
		G: g, Kind: engine.KindDistributedConnected, R: r,
		Model: opt.Model, ModelSet: true,
		SimWorkers: opt.Workers, MaxRounds: opt.MaxRounds,
	})
	if err != nil {
		return DistributedResult{}, err
	}
	return DistributedResult{
		R:               r,
		Set:             resp.Set,
		DomSet:          resp.DomSet,
		Rounds:          resp.Rounds,
		Messages:        resp.Messages,
		MaxMessageWords: resp.MaxMessageWords,
	}, nil
}

var (
	// errNotConnected is the facade's error for a connected pipeline run
	// on a disconnected graph.
	errNotConnected = errors.New("bedom: connected dominating sets require a connected graph")
	// errNotFinalized is the LOCAL pipelines' error for a graph queried
	// before Finalize (the engine refuses one with ErrInvalidRequest).
	errNotFinalized = errors.New("bedom: graph is not finalized; call Finalize first")
)

// checkLocalInput rejects what the LOCAL pipelines cannot run on: a graph
// still under construction, or a disconnected one.
func checkLocalInput(g *Graph) error {
	if !g.Finalized() {
		return errNotFinalized
	}
	if !g.IsConnected() {
		return errNotConnected
	}
	return nil
}

// LocalConnect turns a distance-r dominating set into a connected one using
// the 3r+1-round LOCAL-model algorithm of Lemma 16 / Theorem 17.  The graph
// must be connected and D must be a distance-r dominating set of it.
func LocalConnect(g *Graph, D []int, r int, opts ...DistributedOptions) (DistributedResult, error) {
	if err := checkLocalInput(g); err != nil {
		return DistributedResult{}, err
	}
	opt := pickOpts(opts)
	res, err := distalgo.RunLocalConnector(g, D, r, opt.simOptions())
	if err != nil {
		return DistributedResult{}, err
	}
	return DistributedResult{
		R:               r,
		Set:             res.Set,
		DomSet:          append([]int(nil), D...),
		Rounds:          res.Stats.Rounds,
		Messages:        res.Stats.Messages,
		MaxMessageWords: res.Stats.MaxMessageWords,
	}, nil
}

// PlanarLocalConnectedDominatingSet runs the constant-round LOCAL pipeline
// the paper highlights for planar graphs: the Lenzen–Pignolet–Wattenhofer
// dominating set approximation followed by the LOCAL connector (Theorem 17,
// connection factor ≤ 6 on planar graphs).  The graph must be connected.
func PlanarLocalConnectedDominatingSet(g *Graph, opts ...DistributedOptions) (DistributedResult, error) {
	if err := checkLocalInput(g); err != nil {
		return DistributedResult{}, err
	}
	opt := pickOpts(opts)
	mds, err := distalgo.RunLenzen(g, opt.simOptions())
	if err != nil {
		return DistributedResult{}, err
	}
	cds, err := distalgo.RunLocalConnector(g, mds.Set, 1, opt.simOptions())
	if err != nil {
		return DistributedResult{}, err
	}
	st := mds.Stats
	st.Add(cds.Stats)
	return DistributedResult{
		R:               1,
		Set:             cds.Set,
		DomSet:          mds.Set,
		Rounds:          st.Rounds,
		Messages:        st.Messages,
		MaxMessageWords: st.MaxMessageWords,
	}, nil
}

func pickOpts(opts []DistributedOptions) DistributedOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return DefaultDistributedOptions()
}
