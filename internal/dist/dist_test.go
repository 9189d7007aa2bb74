package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
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
	ctx.Broadcast([]int32{int32(n.state)})
}

func (n *gossipNode) Round(ctx *Context, inbox []Inbound) {
	n.rounds++
	for _, in := range inbox {
		n.state = (n.state*1000003 + in.From*31 + int(in.Words[0])) % 1000000007
	}
	if n.rounds < n.total {
		ctx.Broadcast([]int32{int32(n.state % 4093)})
	}
}

func (n *gossipNode) Done() bool { return n.rounds >= n.total }

func runGossip(t *testing.T, g *graph.Graph, workers int) ([]int, Stats) {
	t.Helper()
	nodes := make([]*gossipNode, g.N())
	stats, err := NewRunner(g, CongestBC, Options{Workers: workers}).Run("gossip", func(v int) Node {
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

// wideMessage is a message of k words.
func wideMessage(k int) []int32 { return make([]int32, k) }

func path3() *graph.Graph {
	return graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
}

func broadcastOnInit(msg []int32) func(int) Node {
	return func(v int) Node {
		return &funcNode{init: func(ctx *Context) { ctx.Broadcast(msg) }}
	}
}

func TestCongestRejectsOversizedMessage(t *testing.T) {
	_, err := NewRunner(path3(), CongestBC, Options{Bandwidth: 2}).Run("wide", broadcastOnInit(wideMessage(3)))
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("3-word message with bandwidth 2 not rejected: %v", err)
	}
	// At the limit it must pass.
	if _, err := NewRunner(path3(), CongestBC, Options{Bandwidth: 2}).Run("wide", broadcastOnInit(wideMessage(2))); err != nil {
		t.Fatalf("2-word message with bandwidth 2 rejected: %v", err)
	}
	// LOCAL never limits message sizes.
	if _, err := NewRunner(path3(), Local, Options{Bandwidth: 2}).Run("wide", broadcastOnInit(wideMessage(1000))); err != nil {
		t.Fatalf("LOCAL applied a bandwidth limit: %v", err)
	}
}

func TestMaxRoundsOverrun(t *testing.T) {
	chatter := func(v int) Node {
		return &funcNode{
			init:  func(ctx *Context) { ctx.Broadcast([]int32{0}) },
			round: func(ctx *Context, _ []Inbound) { ctx.Broadcast([]int32{int32(ctx.Round())}) },
		}
	}
	stats, err := NewRunner(path3(), CongestBC, Options{MaxRounds: 7}).Run("chatter", chatter)
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
	stats, err := NewRunner(path3(), CongestBC, Options{}).Run("single", broadcastOnInit([]int32{5}))
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Rounds: 1, Messages: 4, Words: 4, MaxMessageWords: 1}
	if stats != want {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
	// Multi-word messages are accounted per delivery.
	stats, err = NewRunner(path3(), Local, Options{}).Run("wide", broadcastOnInit(wideMessage(3)))
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
	stats, err := NewRunner(path3(), CongestBC, Options{}).Run("halter", func(v int) Node {
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
	type received struct{ from, word int }
	var got []received
	_, err := NewRunner(g, Local, Options{}).Run("star", func(v int) Node {
		return &funcNode{
			init: func(ctx *Context) {
				if v != 0 && v != 3 {
					ctx.Broadcast([]int32{int32(10 * v)})
				}
			},
			round: func(ctx *Context, inbox []Inbound) {
				if v == 0 && ctx.Round() == 1 {
					for _, in := range inbox {
						if len(in.Words) != 1 {
							t.Errorf("message from %d has %d words, want 1", in.From, len(in.Words))
						}
						got = append(got, received{in.From, int(in.Words[0])})
					}
				}
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []received{{1, 10}, {2, 20}, {4, 40}}
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
	_, err := NewRunner(g, Local, Options{}).Run("topology", func(v int) Node {
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
	if _, err := NewRunner(path3(), Model(42), Options{}).Run("bad", broadcastOnInit([]int32{1})); !errors.Is(err, ErrBadModel) {
		t.Fatalf("unknown model not rejected: %v", err)
	}
	// The empty graph terminates immediately.
	stats, err := NewRunner(graph.MustFromEdges(0, nil), CongestBC, Options{}).Run("empty", func(int) Node { return &funcNode{} })
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

// TestStepBroadcastsAreOneMessage: every Broadcast of a step appends to
// the vertex's one message of the round.  Vertex v sends [v] at Init and,
// in round 1, the pieces [v], nothing, [v, 1], …, [v, v%4], so its
// neighbors receive one message of 1 + 2·(v%4) words, the pieces in order.
// Stats and the probe count it as one message of that length, and the
// bandwidth applies to the whole message: at 6 words every piece fits, but
// the run aborts naming vertex 3, the smallest whose message has 7, at
// Workers 1, 2 and 8.
func TestStepBroadcastsAreOneMessage(t *testing.T) {
	g := testGrid(4, 5)
	message := func(v int) []int32 {
		msg := []int32{int32(v)}
		for i := 1; i <= v%4; i++ {
			msg = append(msg, int32(v), int32(i))
		}
		return msg
	}
	protocol := func(v int) Node {
		rounds := 0
		return &funcNode{
			init: func(ctx *Context) { ctx.Broadcast([]int32{int32(v)}) },
			round: func(ctx *Context, inbox []Inbound) {
				rounds++
				switch rounds {
				case 1:
					ctx.Broadcast([]int32{int32(v)})
					ctx.Broadcast(nil)
					for i := 1; i <= v%4; i++ {
						ctx.Broadcast([]int32{int32(v), int32(i)})
					}
				case 2:
					if len(inbox) != ctx.Degree() {
						t.Errorf("vertex %d got %d messages from %d neighbors", v, len(inbox), ctx.Degree())
					}
					for _, in := range inbox {
						if want := message(in.From); !slices.Equal(in.Words, want) {
							t.Errorf("vertex %d got %v from %d, want %v", v, in.Words, in.From, want)
						}
					}
				}
			},
			done: func() bool { return rounds >= 2 },
		}
	}
	second := RoundProfile{Round: 2, HaltedNodes: g.N()}
	for v := range g.N() {
		second.Messages += int64(g.Degree(v))
		second.Words += int64(g.Degree(v) * len(message(v)))
		second.MaxMessageWords = max(second.MaxMessageWords, len(message(v)))
	}
	arcs := int64(2 * g.M())
	want := Stats{Rounds: 2, Messages: 2 * arcs, Words: arcs + second.Words, MaxMessageWords: 7}
	for _, workers := range []int{1, 2, 8} {
		for _, bandwidth := range []int{0, 7} {
			p := &Probe{}
			st, err := NewRunner(g, CongestBC, Options{Workers: workers, Bandwidth: bandwidth, Probe: p}).Run("pieces", protocol)
			if err != nil || st != want {
				t.Fatalf("workers=%d bandwidth=%d: %+v, %v; want %+v", workers, bandwidth, st, err, want)
			}
			if got := stripDurations(p.Profiles()[0]).Rounds[1]; got != second {
				t.Fatalf("workers=%d bandwidth=%d: round 2 profiled as %+v, want %+v", workers, bandwidth, got, second)
			}
		}
		st, err := NewRunner(g, CongestBC, Options{Workers: workers, Bandwidth: 6}).Run("pieces", protocol)
		if !errors.Is(err, ErrMessageTooLarge) || !strings.Contains(err.Error(), "vertex 3 sent 7 words (limit 6) in round 1") {
			t.Fatalf("workers=%d: a 7-word message of 1- and 2-word pieces under bandwidth 6 gave %v", workers, err)
		}
		if want := (Stats{Rounds: 1, Messages: arcs, Words: arcs, MaxMessageWords: 1}); st != want {
			t.Fatalf("workers=%d: the aborted run counted %+v, want %+v", workers, st, want)
		}
	}
}

// TestBroadcastCopies: Broadcast copies the caller's words, so a node that
// overwrites its buffer right after the call, and reuses it the next round,
// still delivers what it broadcast.
func TestBroadcastCopies(t *testing.T) {
	g := testGrid(4, 5)
	const total = 5
	for _, workers := range []int{1, 2, 8} {
		_, err := NewRunner(g, CongestBC, Options{Workers: workers}).Run("copy", func(v int) Node {
			buf := make([]int32, 2)
			send := func(ctx *Context) {
				buf[0], buf[1] = int32(v), int32(ctx.Round())
				ctx.Broadcast(buf)
				buf[0], buf[1] = -1, -1
			}
			rounds := 0
			return &funcNode{
				init: send,
				round: func(ctx *Context, inbox []Inbound) {
					rounds++
					if len(inbox) != ctx.Degree() {
						t.Errorf("workers=%d: vertex %d heard %d neighbors in round %d, want %d",
							workers, v, len(inbox), ctx.Round(), ctx.Degree())
					}
					for _, in := range inbox {
						if len(in.Words) != 2 || in.Words[0] != int32(in.From) || in.Words[1] != int32(ctx.Round()-1) {
							t.Errorf("workers=%d: vertex %d got %v from %d in round %d, want [%d %d]",
								workers, v, in.Words, in.From, ctx.Round(), in.From, ctx.Round()-1)
						}
					}
					if rounds < total {
						send(ctx)
					}
				},
				done: func() bool { return rounds >= total },
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// abortNode broadcasts two words every round and never halts, mixing what
// it hears into its state like gossipNode.  With overAt > 0 it appends a
// third word in that round, which makes a message past a 2-word bandwidth
// and aborts the run with ErrMessageTooLarge at the round's end; otherwise
// MaxRounds cuts it off.  Either way the run ends with messages in both
// slots.
type abortNode struct {
	id, overAt    int
	rounds, state int
}

func (n *abortNode) Init(ctx *Context) {
	n.state = n.id + 1
	ctx.Broadcast([]int32{int32(n.id), 0})
}

func (n *abortNode) Round(ctx *Context, inbox []Inbound) {
	n.rounds++
	for _, in := range inbox {
		for _, w := range in.Words {
			n.state = (n.state*1000003 + in.From*31 + int(w)) % 1000000007
		}
	}
	ctx.Broadcast([]int32{int32(n.id), int32(n.state % 4093)})
	if n.rounds == n.overAt && n.id%3 == 1 {
		ctx.Broadcast([]int32{int32(n.id)})
	}
}

func (n *abortNode) Done() bool { return false }

// TestRunsOnOneRunnerAreIndependent runs gossip, an aborting run and gossip
// again on one Runner, and requires each run's Stats, error, node states
// and probe profile (durations zeroed) to equal a fresh runner's, at
// Workers 1, 2 and 8.  The aborting run leaves sent messages and probe
// word counts behind; every Run must reset them.
func TestRunsOnOneRunnerAreIndependent(t *testing.T) {
	g := testGrid(7, 9)
	type protocol struct {
		phase string
		make  func(v int) (Node, func() int)
		want  error
	}
	gossip := protocol{"gossip", func(v int) (Node, func() int) {
		n := &gossipNode{id: v, total: 12}
		return n, func() int { return n.state }
	}, nil}
	aborting := func(overAt int, want error) protocol {
		return protocol{"abort", func(v int) (Node, func() int) {
			n := &abortNode{id: v, overAt: overAt}
			return n, func() int { return n.state }
		}, want}
	}
	type outcome struct {
		stats   Stats
		err     error
		states  []int
		profile []byte
	}
	run := func(r *Runner, p *Probe, pr protocol) outcome {
		states := make([]func() int, g.N())
		stats, err := r.Run(pr.phase, func(v int) Node {
			n, state := pr.make(v)
			states[v] = state
			return n
		})
		out := outcome{stats: stats, err: err, states: make([]int, g.N())}
		for v, state := range states {
			out.states[v] = state()
		}
		profiles := p.Profiles()
		out.profile, _ = json.Marshal(stripDurations(profiles[len(profiles)-1]))
		return out
	}
	for _, abort := range []protocol{aborting(4, ErrMessageTooLarge), aborting(0, ErrMaxRounds)} {
		for _, workers := range []int{1, 2, 8} {
			opts := func(p *Probe) Options { return Options{Workers: workers, MaxRounds: 20, Bandwidth: 2, Probe: p} }
			shared := &Probe{TopK: g.N() + 1}
			r := NewRunner(g, CongestBC, opts(shared))
			for i, pr := range []protocol{gossip, abort, gossip} {
				fresh := &Probe{TopK: g.N() + 1}
				want := run(NewRunner(g, CongestBC, opts(fresh)), fresh, pr)
				got := run(r, shared, pr)
				if !errors.Is(want.err, pr.want) || (pr.want == nil) != (want.err == nil) {
					t.Fatalf("%v workers=%d run %d: a fresh runner ended with %v, want %v", abort.want, workers, i, want.err, pr.want)
				}
				if got.stats != want.stats || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
					t.Fatalf("%v workers=%d run %d: %+v, %v on the shared runner; %+v, %v on a fresh one",
						abort.want, workers, i, got.stats, got.err, want.stats, want.err)
				}
				if !slices.Equal(got.states, want.states) {
					t.Fatalf("%v workers=%d run %d: node states differ from a fresh runner's", abort.want, workers, i)
				}
				if !bytes.Equal(got.profile, want.profile) {
					t.Fatalf("%v workers=%d run %d: profile differs from a fresh runner's:\n%s\nvs\n%s",
						abort.want, workers, i, got.profile, want.profile)
				}
			}
		}
	}
}
