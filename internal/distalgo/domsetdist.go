package distalgo

import (
	"slices"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// router is the routing step shared by the election (Theorem 9), the path
// marking (Theorem 10) and the LOCAL connector (Lemma 16).  A token is the
// remaining path of a message travelling toward its target (current holder
// first, target last).  The holder broadcasts all its tokens; only the
// vertex named as the next hop picks each one up.
type router struct {
	id int
	// onPath reports that this vertex lies on a routed path: it originated
	// a token or picked one up.  reached reports that a token ended here.
	onPath, reached bool
}

// route picks up the tokens of msg whose next hop is this vertex and appends
// the rest of every one that goes further to fwd.
func (rt *router) route(msg pathsMessage, fwd pathsMessage) pathsMessage {
	for _, p := range msg {
		if len(p) < 2 || p[1] != rt.id {
			continue
		}
		rt.onPath = true
		if rest := p[1:]; len(rest) >= 2 {
			fwd = append(fwd, rest)
		} else {
			rt.reached = true
		}
	}
	return fwd
}

// sendTokens broadcasts the distinct tokens of toks in increasing order.
func sendTokens(ctx *dist.Context, toks pathsMessage) {
	slices.SortFunc(toks, slices.Compare)
	toks = slices.CompactFunc(toks, slices.Equal)
	if len(toks) > 0 {
		ctx.Broadcast(toks)
	}
}

// routerNode runs one routing phase: it originates its tokens in Init,
// forwards what it picks up for hops rounds, and then halts.
type routerNode struct {
	router
	tokens pathsMessage
	hops   int
	rounds int
}

func (n *routerNode) Init(ctx *dist.Context) {
	if len(n.tokens) > 0 {
		ctx.Broadcast(n.tokens)
	}
}

func (n *routerNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	n.rounds++
	var fwd pathsMessage
	for _, in := range inbox {
		fwd = n.route(in.Msg.(pathsMessage), fwd)
	}
	sendTokens(ctx, fwd)
}

func (n *routerNode) Done() bool { return n.rounds >= n.hops }

// routeTokens runs a routing phase of the given number of hops; setup gives
// each node its originated tokens and initial membership.
func (p *pipeline) routeTokens(phase string, hops int, setup func(n *routerNode)) ([]routerNode, error) {
	nodes := make([]routerNode, p.g.N())
	err := p.run(phase, func(v int) dist.Node {
		n := &nodes[v]
		n.id, n.hops = v, hops
		setup(n)
		return n
	})
	return nodes, err
}

// elect runs the election phase of Theorem 9: every vertex sends a token to
// min WReach_r[G, L, v] along its stored routing path, asking it to join the
// dominating set.  Every vertex a token reaches (or that is its own
// minimum) joins.
func (p *pipeline) elect(witnesses [][]order.PathTo, r int) ([]int, error) {
	nodes, err := p.routeTokens("election", r, func(n *routerNode) {
		if w, ok := MinTarget(witnesses[n.id], r); ok {
			n.reached = w.Target == n.id
			if !n.reached {
				n.tokens = pathsMessage{w.Path}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var set []int
	for v := range nodes {
		if nodes[v].reached {
			set = append(set, v)
		}
	}
	return set, nil
}

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
// CongestBC (the default for the paper); Local gives the same set and Stats.
func RunDomSetWithOrder(g *graph.Graph, o *order.Order, r int, model dist.Model, opts dist.Options) (*DomSetResult, error) {
	if err := atLeastOne("radius", r); err != nil {
		return nil, err
	}
	return (&pipeline{g: g, model: model, opts: opts}).domSet(o, r)
}

// RunDomSet executes the full pipeline of Theorem 9 including the
// distributed order computation (H-partition substitute for Theorem 3, see
// DESIGN.md): order, Algorithm 4, election.
func RunDomSet(g *graph.Graph, r int, model dist.Model, opts dist.Options) (*DomSetResult, error) {
	if err := atLeastOne("radius", r); err != nil {
		return nil, err
	}
	p := &pipeline{g: g, model: model, opts: opts}
	hp, err := p.hpartition(g.Degeneracy(), 1)
	if err != nil {
		return nil, err
	}
	return p.domSet(hp.Order, r)
}

// domSet runs the phases of Theorem 9 on the order o: Algorithm 4 with
// horizon 2r, then the election.
func (p *pipeline) domSet(o *order.Order, r int) (*DomSetResult, error) {
	wits, err := p.wreach(o, 2*r)
	if err != nil {
		return nil, err
	}
	set, err := p.elect(wits, r)
	if err != nil {
		return nil, err
	}
	return &DomSetResult{R: r, Set: set, Order: o, Witnesses: wits, Stats: p.Stats}, nil
}
