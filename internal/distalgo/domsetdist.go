package distalgo

import (
	"fmt"
	"slices"
	"sort"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// TokenMessage carries routing tokens: each token is the remaining path of a
// message travelling toward its target (current holder first, target last).
// In CONGEST_BC the holder broadcasts all tokens; only the vertex named as
// the next hop picks each one up.
type TokenMessage [][]int

// Words implements dist.Message.
func (m TokenMessage) Words() int {
	w := 0
	for _, p := range m {
		w += len(p)
	}
	return w
}

// electNode implements the election phase of Theorem 9: every vertex sends a
// message to min WReach_r[G, L, w] along its stored routing path, asking it
// to join the dominating set.  Every vertex that receives (or originates to
// itself) such a request joins.
type electNode struct {
	id      int
	r       int
	witness order.PathTo // witness to min WReach_r (path from this vertex to the target)
	hasWit  bool

	inSet   bool
	pending [][]int // tokens to forward next round (remaining paths, self first)
	rounds  int
}

func (e *electNode) Init(ctx *dist.Context) {
	if !e.hasWit {
		return
	}
	if e.witness.Target == e.id {
		e.inSet = true
		return
	}
	// The token travels along the witness path toward the target.
	e.send(ctx, e.witness.Path)
}

func (e *electNode) send(ctx *dist.Context, paths ...[]int) {
	var out TokenMessage
	for _, p := range paths {
		if len(p) >= 2 {
			out = append(out, p)
		}
	}
	if len(out) > 0 {
		ctx.Broadcast(out)
	}
}

func (e *electNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	e.rounds++
	var forward [][]int
	for _, in := range inbox {
		toks, ok := in.Msg.(TokenMessage)
		if !ok {
			continue
		}
		for _, p := range toks {
			// p = [holder, next, ..., target]; we act only if we are next.
			if len(p) < 2 || p[1] != e.id {
				continue
			}
			rest := p[1:]
			if rest[len(rest)-1] == e.id {
				// The token reached its target: join the dominating set.
				e.inSet = true
				continue
			}
			forward = append(forward, rest)
		}
	}
	slices.SortFunc(forward, slices.Compare)
	forward = slices.CompactFunc(forward, slices.Equal)
	if len(forward) > 0 {
		e.send(ctx, forward...)
	}
}

func (e *electNode) Done() bool { return e.rounds >= e.r }

// DomSetResult is the outcome of the distributed distance-r dominating set
// computation (Theorem 9).
type DomSetResult struct {
	// R is the domination radius.
	R int
	// Set is the elected dominating set, sorted.
	Set []int
	// Order is the linear order used (super-ids).
	Order *order.Order
	// Witnesses are the weak-reachability witnesses computed by Algorithm 4.
	Witnesses [][]order.PathTo
	// Stats totals rounds and congestion across all phases.
	Stats dist.Stats
}

// RunDomSetWithOrder executes the paper's Theorem 9 pipeline given an
// already-known order (as if distributed by Theorem 3): Algorithm 4 with
// horizon 2r followed by the election/routing phase.  The model should be
// CongestBC (the default for the paper) but Local and Congest also work.
func RunDomSetWithOrder(g *graph.Graph, o *order.Order, r int, model dist.Model, opts dist.Options) (*DomSetResult, error) {
	if r < 1 {
		return nil, fmt.Errorf("distalgo: radius must be ≥ 1, got %d", r)
	}
	res := &DomSetResult{R: r, Order: o}
	wres, err := RunWReachDist(g, o, 2*r, model, opts)
	if err != nil {
		return nil, err
	}
	res.Witnesses = wres.Witnesses
	res.Stats.Add(wres.Stats)

	set, stats, err := runElection(g, wres.Witnesses, r, model, opts)
	if err != nil {
		return nil, err
	}
	res.Set = set
	res.Stats.Add(stats)
	return res, nil
}

// RunDomSet executes the full pipeline of Theorem 9 including the
// distributed order computation (H-partition substitute for Theorem 3, see
// DESIGN.md): order, Algorithm 4, election.
func RunDomSet(g *graph.Graph, r int, model dist.Model, opts dist.Options) (*DomSetResult, error) {
	hp, err := RunHPartition(g, model, g.Degeneracy(), 1, opts)
	if err != nil {
		return nil, err
	}
	res, err := RunDomSetWithOrder(g, hp.Order, r, model, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(hp.Stats)
	return res, nil
}

// runElection runs the routing/election phase shared by Theorems 9 and 10.
func runElection(g *graph.Graph, witnesses [][]order.PathTo, r int, model dist.Model, opts dist.Options) ([]int, dist.Stats, error) {
	nodes := make([]electNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "election"
	}
	runner := dist.NewRunner(g, model, opts)
	stats, err := runner.Run(func(v int) dist.Node {
		n := &nodes[v]
		n.id, n.r = v, r
		n.witness, n.hasWit = MinTarget(witnesses[v], r)
		return n
	})
	if err != nil {
		return nil, stats, fmt.Errorf("distalgo: election failed: %w", err)
	}
	var set []int
	for v := range nodes {
		if nodes[v].inSet {
			set = append(set, v)
		}
	}
	sort.Ints(set)
	return set, stats, nil
}
