package dist

import "testing"

// flipNode broadcasts a one-word message for a fixed number of rounds.
// Broadcast copies the word out of the caller's span, so a run's
// allocations are the runner's own.
type flipNode struct{ rounds, total int }

func (f *flipNode) Init(ctx *Context) { ctx.Broadcast([]int32{0}) }

func (f *flipNode) Round(ctx *Context, _ []Inbound) {
	f.rounds++
	if f.rounds < f.total {
		ctx.Broadcast([]int32{int32(f.rounds % 2)})
	}
}

func (f *flipNode) Done() bool { return f.rounds >= f.total }

// TestRunnerAllocs gates the runner's own allocations: a run reads the CSR
// in place and takes its arrays from the runner released before it, so the
// count does not grow with n.  The budget is the measured count of a
// Workers: 1 run, since 15% above it rounds down to it; the race detector
// allocates on its own, so the test skips under -race (CI runs it in a
// separate non-race step).
func TestRunnerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := testGrid(24, 24)
	nodes := make([]flipNode, g.N())
	const budget = 2 // measured 2: the Runner and its bound stepBlock
	got := testing.AllocsPerRun(5, func() {
		// Every distalgo phase is named, and so is this run: the metric
		// series lookups by phase allocate nothing.
		r := NewRunner(g, CongestBC, Options{Workers: 1})
		defer r.Release()
		_, err := r.Run("flip", func(v int) Node {
			nodes[v] = flipNode{total: 12}
			return &nodes[v]
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("12-round run on a 24x24 grid: %.0f allocations (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("12-round run on a 24x24 grid allocated %.0f times, budget %d", got, budget)
	}
}
