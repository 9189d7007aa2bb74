package dist

import (
	"errors"
	"runtime"
	"slices"
	"testing"
)

// drainReleased empties the free list, so the next runner makes new
// arrays, and returns the sets it held.
func drainReleased() []arrays {
	var sets []arrays
	for {
		a, ok := released.Take(func(*arrays) bool { return true })
		if !ok {
			return sets
		}
		sets = append(sets, a)
	}
}

// TestReleasedArraysServeTheNextRunner releases a runner after a run that
// aborted mid-round (a message past the bandwidth, or MaxRounds) and
// checks that the next runner on the graph takes its arrays and still runs
// gossip exactly like a runner with new arrays: Stats, node states and
// probe profile, at Workers 1, 2 and 8.  A larger graph does not fit the
// set; a smaller one does.
func TestReleasedArraysServeTheNextRunner(t *testing.T) {
	g := testGrid(7, 9)
	type outcome struct {
		stats  Stats
		states []int
		prof   RunProfile
	}
	gossip := func(r *Runner, p *Probe) outcome {
		nodes := make([]gossipNode, g.N())
		stats, err := r.Run("gossip", func(v int) Node {
			nodes[v] = gossipNode{id: v, total: 12}
			return &nodes[v]
		})
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{stats: stats, prof: stripDurations(p.Profiles()[0])}
		for _, n := range nodes {
			out.states = append(out.states, n.state)
		}
		return out
	}
	for _, overAt := range []int{4, 0} {
		for _, workers := range []int{1, 2, 8} {
			opts := func(p *Probe) Options { return Options{Workers: workers, MaxRounds: 20, Bandwidth: 2, Probe: p} }
			drainReleased()
			fresh := &Probe{TopK: g.N() + 1}
			want := gossip(NewRunner(g, CongestBC, opts(fresh)), fresh)

			aborted := NewRunner(g, CongestBC, opts(&Probe{}))
			if _, err := aborted.Run("abort", func(v int) Node { return &abortNode{id: v, overAt: overAt} }); err == nil {
				t.Fatalf("overAt=%d workers=%d: the aborting run succeeded", overAt, workers)
			}
			set := &aborted.ctxs[0]
			aborted.Release()
			aborted.Release() // a second Release is a no-op
			if got := len(released.sets); got != 1 {
				t.Fatalf("overAt=%d workers=%d: %d sets released, want 1", overAt, workers, got)
			}

			p := &Probe{TopK: g.N() + 1}
			next := NewRunner(g, CongestBC, opts(p))
			got := gossip(next, p)
			if &next.ctxs[0] != set {
				t.Fatalf("overAt=%d workers=%d: the next runner made new arrays", overAt, workers)
			}
			if got.stats != want.stats || !slices.Equal(got.states, want.states) {
				t.Fatalf("overAt=%d workers=%d: recycled arrays gave %+v, new arrays %+v", overAt, workers, got.stats, want.stats)
			}
			if gp, wp := got.prof, want.prof; !slices.Equal(gp.Rounds, wp.Rounds) || !slices.Equal(gp.Congestion, wp.Congestion) {
				t.Fatalf("overAt=%d workers=%d: recycled arrays gave another probe profile", overAt, workers)
			}
			next.Release()

			for _, other := range []struct {
				rows int
				fits bool
			}{{8, false}, {3, true}} {
				r := NewRunner(testGrid(other.rows, 9), CongestBC, opts(nil))
				if _, err := r.Run("gossip", func(v int) Node { return &gossipNode{id: v, total: 3} }); err != nil {
					t.Fatal(err)
				}
				if took := &r.ctxs[0] == set; took != other.fits {
					t.Fatalf("overAt=%d workers=%d: a runner on a %d×9 grid took the 7×9 grid's set: %v", overAt, workers, other.rows, took)
				}
			}
		}
	}
}

// TestReleasedArraysAreBounded releases more runners than the free list
// holds and checks what it keeps: at most GOMAXPROCS sets, every node,
// context and inbox entry cleared, and no slab past maxSlabWords.
// The runners broadcast wide LOCAL messages, so their slabs outgrow it.
func TestReleasedArraysAreBounded(t *testing.T) {
	g := testGrid(6, 6)
	limit := maxSlabWords(g.N(), 2*g.M(), 1)
	// Every runner runs before any is released, so each makes its own set.
	runners := make([]*Runner, runtime.GOMAXPROCS(0)+2)
	for i := range runners {
		runners[i] = NewRunner(g, Local, Options{Workers: 1})
		_, err := runners[i].Run("wide", func(v int) Node {
			return &funcNode{init: func(ctx *Context) { ctx.Broadcast(wideMessage(limit)) }}
		})
		if err != nil {
			t.Fatal(err)
		}
		if grown := cap(runners[i].workers[0].slab[0]); grown <= limit {
			t.Fatalf("slab of %d words, want one past the bound %d", grown, limit)
		}
	}
	for _, r := range runners {
		r.Release()
	}
	sets := drainReleased()
	if bound := runtime.GOMAXPROCS(0); len(sets) > bound {
		t.Fatalf("the free list held %d sets, bound %d", len(sets), bound)
	}
	for _, a := range sets {
		for v := range a.nodes {
			c := &a.ctxs[v]
			if a.nodes[v] != nil || c.r != nil || c.w != nil || c.sent[0] != nil || c.sent[1] != nil {
				t.Fatalf("vertex %d of a released set keeps a pointer", v)
			}
		}
		for _, w := range a.workers {
			for _, in := range w.inbox[:cap(w.inbox)] {
				if in.Words != nil {
					t.Fatal("a released inbox keeps a message")
				}
			}
			for _, s := range w.slab {
				if cap(s) > limit {
					t.Fatalf("a released slab keeps %d words, bound %d", cap(s), limit)
				}
			}
		}
	}
}

// TestRunAfterRelease: a released runner takes arrays anew when it runs
// again, and its error paths behave as a fresh runner's.
func TestRunAfterRelease(t *testing.T) {
	g := path3()
	r := NewRunner(g, CongestBC, Options{Bandwidth: 1})
	if _, err := r.Run("wide", broadcastOnInit(wideMessage(2))); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("want ErrMessageTooLarge, got %v", err)
	}
	r.Release()
	st, err := r.Run("narrow", broadcastOnInit(wideMessage(1)))
	if err != nil || st.Messages != 4 {
		t.Fatalf("after Release: %+v, %v; want 4 messages and no error", st, err)
	}
	r.Release()
}
