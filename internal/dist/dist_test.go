package dist

import (
	"errors"
	"testing"

	"bedom/internal/graph"
)

// testGrid builds a rows×cols grid without importing internal/gen (keeping
// the simulator's tests free of higher-layer dependencies).
func testGrid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				if err := g.AddEdge(id(i, j), id(i, j+1)); err != nil {
					panic(err)
				}
			}
			if i+1 < rows {
				if err := g.AddEdge(id(i, j), id(i+1, j)); err != nil {
					panic(err)
				}
			}
		}
	}
	g.Finalize()
	return g
}

// gossipNode mixes every received (sender, value) pair into a running hash in
// inbox order, so its final state is sensitive to both message content and
// delivery order — any nondeterminism in the runner shows up in the state.
type gossipNode struct {
	id     int
	state  int
	rounds int
	total  int
}

func (n *gossipNode) Init(ctx *Context) {
	n.state = n.id + 1
	ctx.Broadcast(IntMessage(n.state))
}

func (n *gossipNode) Round(ctx *Context, inbox []Inbound) {
	n.rounds++
	for _, in := range inbox {
		n.state = (n.state*1000003 + in.From*31 + int(in.Msg.(IntMessage))) % 1000000007
	}
	if n.rounds < n.total {
		ctx.Broadcast(IntMessage(n.state % 4093))
	}
}

func (n *gossipNode) Done() bool { return n.rounds >= n.total }

func runGossip(t *testing.T, g *graph.Graph, workers int) ([]int, Stats) {
	t.Helper()
	nodes := make([]*gossipNode, g.N())
	stats, err := NewRunner(g, CongestBC, Options{Workers: workers}).Run(func(v int) Node {
		nodes[v] = &gossipNode{id: v, total: 12}
		return nodes[v]
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	out := make([]int, len(nodes))
	for v, nd := range nodes {
		out[v] = nd.state
	}
	return out, stats
}

// TestDeterministicAcrossWorkers is the acceptance check of the simulator:
// the node states and every Stats field must be identical for any worker
// count, in particular Workers=1 vs Workers=8.
func TestDeterministicAcrossWorkers(t *testing.T) {
	g := testGrid(9, 13)
	refState, refStats := runGossip(t, g, 1)
	if refStats.Rounds != 12 {
		t.Fatalf("expected 12 rounds, got %d", refStats.Rounds)
	}
	for _, workers := range []int{4, 8} {
		state, stats := runGossip(t, g, workers)
		if stats != refStats {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, stats, refStats)
		}
		for v := range state {
			if state[v] != refState[v] {
				t.Fatalf("workers=%d: state of vertex %d diverges: %d vs %d",
					workers, v, state[v], refState[v])
			}
		}
	}
}

// funcNode adapts closures to the Node interface for one-off test protocols.
type funcNode struct {
	init  func(*Context)
	round func(*Context, []Inbound)
	done  func() bool
}

func (f *funcNode) Init(ctx *Context) {
	if f.init != nil {
		f.init(ctx)
	}
}

func (f *funcNode) Round(ctx *Context, inbox []Inbound) {
	if f.round != nil {
		f.round(ctx, inbox)
	}
}

func (f *funcNode) Done() bool {
	if f.done != nil {
		return f.done()
	}
	return true
}

// wideMessage is a message of a configurable word count.
type wideMessage int

func (m wideMessage) Words() int { return int(m) }

func path3() *graph.Graph {
	return graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
}

func broadcastOnInit(msg Message) func(int) Node {
	return func(v int) Node {
		return &funcNode{init: func(ctx *Context) { ctx.Broadcast(msg) }}
	}
}

func TestCongestRejectsOversizedMessage(t *testing.T) {
	_, err := NewRunner(path3(), CongestBC, Options{Bandwidth: 2}).Run(broadcastOnInit(wideMessage(3)))
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("3-word message with bandwidth 2 not rejected: %v", err)
	}
	// At the limit it must pass.
	if _, err := NewRunner(path3(), CongestBC, Options{Bandwidth: 2}).Run(broadcastOnInit(wideMessage(2))); err != nil {
		t.Fatalf("2-word message with bandwidth 2 rejected: %v", err)
	}
	// LOCAL never limits message sizes.
	if _, err := NewRunner(path3(), Local, Options{Bandwidth: 2}).Run(broadcastOnInit(wideMessage(1000))); err != nil {
		t.Fatalf("LOCAL applied a bandwidth limit: %v", err)
	}
}

func TestMaxRoundsOverrun(t *testing.T) {
	chatter := func(v int) Node {
		return &funcNode{
			init:  func(ctx *Context) { ctx.Broadcast(IntMessage(0)) },
			round: func(ctx *Context, _ []Inbound) { ctx.Broadcast(IntMessage(ctx.Round())) },
		}
	}
	stats, err := NewRunner(path3(), CongestBC, Options{MaxRounds: 7}).Run(chatter)
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("endless chatter not cut off: %v", err)
	}
	if stats.Rounds != 7 {
		t.Fatalf("expected the budget of 7 executed rounds, got %d", stats.Rounds)
	}
}

// TestStatsAccounting pins the exact accounting on a 3-vertex path where
// every vertex broadcasts one single-word message at Init and then stays
// silent: 4 deliveries (the middle vertex receives two and sends to two),
// 4 words, max message 1 word, and a single round to detect quiescence.
func TestStatsAccounting(t *testing.T) {
	stats, err := NewRunner(path3(), CongestBC, Options{}).Run(broadcastOnInit(IntMessage(5)))
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Rounds: 1, Messages: 4, Words: 4, MaxMessageWords: 1}
	if stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
	// Multi-word messages are accounted per delivery.
	stats, err = NewRunner(path3(), Local, Options{}).Run(broadcastOnInit(wideMessage(3)))
	if err != nil {
		t.Fatal(err)
	}
	want = Stats{Rounds: 1, Messages: 4, Words: 12, MaxMessageWords: 3}
	if stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
}

// TestHalterKeepsRunAlive: quiescence alone must not end the run while a
// node still reports not-done — the refined-order protocol's stall-breaker
// relies on receiving empty rounds.
func TestHalterKeepsRunAlive(t *testing.T) {
	const target = 9
	rounds := 0
	stats, err := NewRunner(path3(), CongestBC, Options{}).Run(func(v int) Node {
		if v != 0 {
			return &funcNode{} // silent, always done
		}
		return &funcNode{
			round: func(*Context, []Inbound) { rounds++ },
			done:  func() bool { return rounds >= target },
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != target || rounds != target {
		t.Fatalf("run ended after %d rounds (node saw %d), want %d", stats.Rounds, rounds, target)
	}
}

// TestInboxOrdering: a round's inbox holds at most one message per
// neighbor, in ascending sender id, and skips neighbors that stayed silent.
func TestInboxOrdering(t *testing.T) {
	// A star: vertex 0 adjacent to 1..4; vertex 3 stays silent.
	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	var got []Inbound
	_, err := NewRunner(g, Local, Options{}).Run(func(v int) Node {
		return &funcNode{
			init: func(ctx *Context) {
				if v != 0 && v != 3 {
					ctx.Broadcast(IntMessage(10 * v))
				}
			},
			round: func(ctx *Context, inbox []Inbound) {
				if v == 0 && ctx.Round() == 1 {
					got = append(got, inbox...)
				}
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Inbound{{From: 1, Msg: IntMessage(10)}, {From: 2, Msg: IntMessage(20)}, {From: 4, Msg: IntMessage(40)}}
	if len(got) != len(want) {
		t.Fatalf("vertex 0 received %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inbox[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestContextTopologyQueries(t *testing.T) {
	g := testGrid(3, 3)
	_, err := NewRunner(g, Local, Options{}).Run(func(v int) Node {
		return &funcNode{init: func(ctx *Context) {
			if ctx.Round() != 0 {
				t.Errorf("vertex %d: Init ran in round %d", v, ctx.Round())
			}
			if ctx.Degree() != g.Degree(v) {
				t.Errorf("vertex %d: degree %d, want %d", v, ctx.Degree(), g.Degree(v))
			}
			neigh := ctx.Neighbors()
			if len(neigh) != g.Degree(v) {
				t.Errorf("vertex %d: %d neighbors, want %d", v, len(neigh), g.Degree(v))
			}
			for i := 1; i < len(neigh); i++ {
				if neigh[i-1] >= neigh[i] {
					t.Errorf("vertex %d: neighbors not strictly increasing: %v", v, neigh)
				}
			}
			for _, u := range neigh {
				if !g.HasEdge(v, int(u)) {
					t.Errorf("vertex %d: %d reported as neighbor but not adjacent", v, u)
				}
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunnerMisuse(t *testing.T) {
	r := NewRunner(path3(), CongestBC, Options{})
	if _, err := r.Run(broadcastOnInit(IntMessage(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(broadcastOnInit(IntMessage(1))); !errors.Is(err, ErrRunnerReused) {
		t.Fatalf("runner reuse not rejected: %v", err)
	}
	if _, err := NewRunner(path3(), Model(42), Options{}).Run(broadcastOnInit(IntMessage(1))); !errors.Is(err, ErrBadModel) {
		t.Fatalf("unknown model not rejected: %v", err)
	}
	// The empty graph terminates immediately.
	stats, err := NewRunner(graph.MustFromEdges(0, nil), CongestBC, Options{}).Run(func(int) Node { return &funcNode{} })
	if err != nil || stats.Rounds != 0 {
		t.Fatalf("empty graph: %+v, %v", stats, err)
	}
}

func TestModelString(t *testing.T) {
	for m, want := range map[Model]string{Local: "LOCAL", CongestBC: "CONGEST_BC", Model(9): "Model(?)"} {
		if m.String() != want {
			t.Fatalf("Model(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

// TestDoubleBroadcastRejected: a vertex stages at most one message per
// round in every model; LOCAL lifts the size limit, not the count.
func TestDoubleBroadcastRejected(t *testing.T) {
	for _, model := range []Model{Local, CongestBC} {
		_, err := NewRunner(path3(), model, Options{}).Run(func(v int) Node {
			return &funcNode{
				init: func(ctx *Context) { ctx.Broadcast(IntMessage(0)) },
				round: func(ctx *Context, _ []Inbound) {
					if v == 1 && ctx.Round() == 1 {
						ctx.Broadcast(IntMessage(1))
						ctx.Broadcast(IntMessage(2))
					}
				},
			}
		})
		if !errors.Is(err, ErrModelViolation) {
			t.Fatalf("%v: a second broadcast in one round was not rejected: %v", model, err)
		}
		// One broadcast per round is the intended use and must pass.
		if _, err := NewRunner(path3(), model, Options{}).Run(broadcastOnInit(IntMessage(1))); err != nil {
			t.Fatalf("%v: single broadcast rejected: %v", model, err)
		}
	}
}
