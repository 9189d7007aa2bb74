package distalgo

import (
	"fmt"
	"sort"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// markNode implements the connection phase of Theorem 10: every dominator v
// sends, along each of its stored weak-reachability paths (horizon 2r+1), a
// token instructing all path vertices to join the connected dominating set
// D'.  Every vertex that holds or forwards a token joins as well.
type markNode struct {
	id         int
	inD        bool
	paths      [][]int // paths from this vertex to its weakly reachable targets
	maxForward int

	inDPrime bool
	rounds   int
}

func (m *markNode) Init(ctx *dist.Context) {
	if !m.inD {
		return
	}
	m.inDPrime = true
	var out TokenMessage
	for _, p := range m.paths {
		if len(p) >= 2 {
			out = append(out, p)
		}
	}
	if len(out) > 0 {
		ctx.Broadcast(out)
	}
}

func (m *markNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	m.rounds++
	var forward [][]int
	for _, in := range inbox {
		toks, ok := in.Msg.(TokenMessage)
		if !ok {
			continue
		}
		for _, p := range toks {
			if len(p) < 2 || p[1] != m.id {
				continue
			}
			m.inDPrime = true
			rest := p[1:]
			if len(rest) >= 2 {
				forward = append(forward, rest)
			}
		}
	}
	forward = dedupPaths(forward)
	if len(forward) > 0 {
		var out TokenMessage
		out = append(out, forward...)
		ctx.Broadcast(out)
	}
}

func (m *markNode) Done() bool { return m.rounds >= m.maxForward }

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
	if r < 1 {
		return nil, fmt.Errorf("distalgo: radius must be ≥ 1, got %d", r)
	}
	res := &ConnectedResult{R: r, Order: o}

	wres, err := RunWReachDist(g, o, 2*r+1, model, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(wres.Stats)

	D, estats, err := runElection(g, wres.Witnesses, r, model, opts)
	if err != nil {
		return nil, err
	}
	res.DomSet = D
	res.Stats.Add(estats)

	inD := make([]bool, g.N())
	for _, v := range D {
		inD[v] = true
	}
	nodes := make([]markNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "connect"
	}
	runner := dist.NewRunner(g, model, opts)
	mstats, err := runner.Run(func(v int) dist.Node {
		n := &nodes[v]
		n.id, n.inD, n.maxForward = v, inD[v], 2*r+1
		if inD[v] {
			for _, pt := range wres.Witnesses[v] {
				if len(pt.Path) >= 2 {
					n.paths = append(n.paths, pt.Path)
				}
			}
		}
		return n
	})
	if err != nil {
		return nil, fmt.Errorf("distalgo: path marking failed: %w", err)
	}
	res.Stats.Add(mstats)

	var set []int
	for v := range nodes {
		if nodes[v].inDPrime {
			set = append(set, v)
		}
	}
	sort.Ints(set)
	res.Set = set
	return res, nil
}

// RunConnectedDomSet executes the full Theorem 10 pipeline including the
// distributed order computation (H-partition substitute for Theorem 3).
func RunConnectedDomSet(g *graph.Graph, r int, model dist.Model, opts dist.Options) (*ConnectedResult, error) {
	hp, err := RunHPartition(g, model, g.Degeneracy(), 1, opts)
	if err != nil {
		return nil, err
	}
	res, err := RunConnectedDomSetWithOrder(g, hp.Order, r, model, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(hp.Stats)
	return res, nil
}
