package distalgo

import (
	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// router is the routing step shared by the election (Theorem 9), the path
// marking (Theorem 10) and the LOCAL connector (Lemma 16).  A token is the
// remaining path of a message travelling toward its target (current holder
// first, target last).  The holder broadcasts all its tokens, one after
// another; only the vertex named as the next hop picks each one up.
type router struct {
	id int32
	// onPath reports that this vertex lies on a routed path: it originated
	// a token or picked one up.  reached reports that a token ended here.
	onPath, reached bool
	// fwd holds the tokens to forward, reused from round to round.
	fwd [][]int32
}

// forward picks up the tokens of inbox whose next hop is this vertex and
// sends on the rest of every one that goes further.  Tokens never revisit
// a vertex, so each occurrence of a message's sender starts one.
func (rt *router) forward(ctx *dist.Context, inbox []dist.Inbound) {
	rt.fwd = rt.fwd[:0]
	for _, in := range inbox {
		words, sender := in.Words, int32(in.From)
		for len(words) > 0 {
			end := 1
			for end < len(words) && words[end] != sender {
				end++
			}
			tok := words[:end]
			words = words[end:]
			if len(tok) < 2 || tok[1] != rt.id {
				continue
			}
			rt.onPath = true
			if rest := tok[1:]; len(rest) >= 2 {
				rt.fwd = append(rt.fwd, rest)
			} else {
				rt.reached = true
			}
		}
	}
	rt.send(ctx, rt.fwd)
}

// send broadcasts the distinct tokens of toks in increasing order.  The
// tokens may be windows of this round's inbox: Broadcast copies them out.
func (rt *router) send(ctx *dist.Context, toks [][]int32) {
	for _, tok := range sortedDistinct(toks) {
		ctx.Broadcast(tok)
	}
}

// routerNode runs one routing phase: it originates its tokens in Init,
// forwards what it picks up for hops rounds, and then halts.
type routerNode struct {
	router
	// tokens are the originated tokens, one after another.
	tokens []int32
	hops   int
	rounds int
}

func (n *routerNode) Init(ctx *dist.Context) { ctx.Broadcast(n.tokens) }

func (n *routerNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	n.rounds++
	n.forward(ctx, inbox)
}

func (n *routerNode) Done() bool { return n.rounds >= n.hops }

// routeTokens runs a routing phase of the given number of hops; setup sets
// each node's initial membership and appends its originated tokens to
// toks, one flat array for every node.
func (p *pipeline) routeTokens(phase string, hops int, setup func(n *routerNode, toks []int32) []int32) ([]routerNode, error) {
	nodes := make([]routerNode, p.g.N())
	var toks []int32
	err := p.run(phase, func(v int) dist.Node {
		n := &nodes[v]
		n.id, n.hops = int32(v), hops
		start := len(toks)
		toks = setup(n, toks)
		n.tokens = toks[start:len(toks):len(toks)]
		return n
	})
	return nodes, err
}

// elect runs the election phase of Theorem 9: every vertex sends a token to
// min WReach_r[G, L, v] along the routing path in its Algorithm 4 table,
// asking it to join the dominating set.  Every vertex a token reaches (or
// that is its own minimum) joins.
func (p *pipeline) elect(wr []wreachNode, r int) ([]int, error) {
	nodes, err := p.routeTokens("election", r, func(n *routerNode, toks []int32) []int32 {
		w := &wr[n.id]
		// The table is sorted by target super-id, so the first entry
		// within r is the least target; the node's own entry is within r.
		for _, e := range w.best {
			if int(e.end-e.start)-1 > r {
				continue
			}
			if n.reached = w.arena[e.start] == n.id; !n.reached {
				toks = w.appendToken(toks, e)
			}
			break
		}
		return toks
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
	p := &pipeline{g: g, model: model, opts: opts}
	defer p.release()
	return p.domSet(o, r)
}

// RunDomSet executes the full pipeline of Theorem 9 including the
// distributed order computation (H-partition substitute for Theorem 3, see
// DESIGN.md): order, Algorithm 4, election.
func RunDomSet(g *graph.Graph, r int, model dist.Model, opts dist.Options) (*DomSetResult, error) {
	if err := atLeastOne("radius", r); err != nil {
		return nil, err
	}
	p := &pipeline{g: g, model: model, opts: opts}
	defer p.release()
	hp, err := p.hpartition(g.Degeneracy(), 1)
	if err != nil {
		return nil, err
	}
	return p.domSet(hp.Order, r)
}

// domSet runs the phases of Theorem 9 on the order o: Algorithm 4 with
// horizon 2r, then the election.
func (p *pipeline) domSet(o *order.Order, r int) (*DomSetResult, error) {
	wr, err := p.wreach(o, 2*r)
	if err != nil {
		return nil, err
	}
	set, err := p.elect(wr, r)
	if err != nil {
		return nil, err
	}
	return &DomSetResult{R: r, Set: set, Order: o, Stats: p.Stats}, nil
}
