package distalgo

import (
	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// mark runs the path-marking phase of Theorem 10: every dominator of D
// sends, along each of its stored weak-reachability paths (horizon 2r+1,
// read from its Algorithm 4 table), a token instructing all path vertices
// to join the connected dominating set D'.  Every vertex that holds or
// forwards a token joins.
func (p *pipeline) mark(wr []wreachNode, D []int, r int) ([]int, error) {
	inD := make([]bool, p.g.N())
	for _, v := range D {
		inD[v] = true
	}
	nodes, err := p.routeTokens("connect", 2*r+1, func(n *routerNode, toks []int32) []int32 {
		if !inD[n.id] {
			return toks
		}
		n.onPath = true
		w := &wr[n.id]
		for _, e := range w.best {
			if e.end-e.start >= 2 {
				toks = w.appendToken(toks, e)
			}
		}
		return toks
	})
	if err != nil {
		return nil, err
	}
	var set []int
	for v := range nodes {
		if nodes[v].onPath {
			set = append(set, v)
		}
	}
	return set, nil
}

// ConnectedResult is the outcome of the distributed connected distance-r
// dominating set computation (Theorem 10).
type ConnectedResult struct {
	// R is the domination radius.
	R int
	// DomSet is the underlying distance-r dominating set D.
	DomSet []int
	// Set is the connected distance-r dominating set D' ⊇ D, sorted.
	Set []int
	// Order is the linear order used.
	Order *order.Order
	// Stats totals rounds and congestion across all phases.
	Stats dist.Stats
}

// RunConnectedDomSetWithOrder executes Theorem 10 with a given order
// (computed for parameter 2r+1): Algorithm 4 with horizon 2r+1, the election
// phase of Theorem 9 (using the same witnesses, which contain all paths of
// length ≤ r), and the path-marking phase of Corollary 13.
func RunConnectedDomSetWithOrder(g *graph.Graph, o *order.Order, r int, model dist.Model, opts dist.Options) (*ConnectedResult, error) {
	if err := atLeastOne("radius", r); err != nil {
		return nil, err
	}
	p := &pipeline{g: g, model: model, opts: opts}
	defer p.release()
	return p.connectedDomSet(o, r)
}

// RunConnectedDomSet executes the full Theorem 10 pipeline including the
// distributed order computation (H-partition substitute for Theorem 3).
func RunConnectedDomSet(g *graph.Graph, r int, model dist.Model, opts dist.Options) (*ConnectedResult, error) {
	if err := atLeastOne("radius", r); err != nil {
		return nil, err
	}
	p := &pipeline{g: g, model: model, opts: opts}
	defer p.release()
	hp, err := p.hpartition(g.Degeneracy(), 1)
	if err != nil {
		return nil, err
	}
	return p.connectedDomSet(hp.Order, r)
}

// connectedDomSet runs the phases of Theorem 10 on the order o.
func (p *pipeline) connectedDomSet(o *order.Order, r int) (*ConnectedResult, error) {
	wr, err := p.wreach(o, 2*r+1)
	if err != nil {
		return nil, err
	}
	D, err := p.elect(wr, r)
	if err != nil {
		return nil, err
	}
	set, err := p.mark(wr, D, r)
	if err != nil {
		return nil, err
	}
	return &ConnectedResult{R: r, DomSet: D, Set: set, Order: o, Stats: p.Stats}, nil
}
