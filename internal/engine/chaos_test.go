package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"bedom/internal/fault"
	"bedom/internal/gen"
)

// TestChaos drives a persistent engine through randomized fault schedules
// over register / mutate / checkpoint / query / crash interleavings and
// asserts the durability invariants survive injected disk faults:
//
//   - every ACKED mutation (Mutate returned nil) is present after a
//     restart from the data directory a kill -9 leaves (killImage: the WAL
//     is not sealed, so a failed segment is not cut back);
//   - every recovered mutation was at least ATTEMPTED (logged past the
//     degraded gate) — the store never invents writes.  A failed append
//     changes nothing in memory, but its record may legitimately surface
//     after a kill -9, which leaves it past the failed segment's durable
//     prefix;
//   - no interleaving deadlocks or panics;
//   - the whole run — fault firings, degraded entries and exits, per-op
//     outcomes — is deterministic in the seed.
//
// The schedule and the op sequence both derive from the seed, so a failure
// reproduces from the seed alone (override the matrix with
// BEDOM_CHAOS_SEEDS=3,17,...).
func TestChaos(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if env := os.Getenv("BEDOM_CHAOS_SEEDS"); env != "" {
		seeds = nil
		for _, s := range strings.Split(env, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				t.Fatalf("BEDOM_CHAOS_SEEDS: %v", err)
			}
			seeds = append(seeds, v)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			j1 := chaosRun(t, seed)
			j2 := chaosRun(t, seed)
			if j1 != j2 {
				t.Errorf("run not deterministic in seed %d:\n--- first ---\n%s\n--- second ---\n%s", seed, j1, j2)
			}
		})
	}
}

const chaosOps = 40

// chaosRun executes one full schedule for seed in a fresh directory and
// returns the run's journal (used to assert determinism).  All invariant
// violations fail t directly.
func chaosRun(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	var journal strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&journal, format+"\n", args...)
	}

	// The injector starts empty so the initial open + registration always
	// succeed; the fault schedule arms afterwards.  Faults target the
	// durability-critical ops with a mix of dead-disk (sticky), transient and
	// torn-write failures.
	in := fault.NewInjector(nil)
	open := func() *Engine {
		e, err := Open(dir, Config{FS: in, QueueWaitBudget: time.Second})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		return e
	}
	e := open()
	defer func() { e.Close() }()
	if _, err := e.Register("g", gen.Path(2*chaosOps+4)); err != nil {
		t.Fatalf("seed %d: register: %v", seed, err)
	}
	in.Add(fault.Schedule(seed, 6, fault.ScheduleOptions{
		MaxAfter:   12,
		StickyProb: 0.3,
		TornProb:   0.3,
	})...)

	// Mutation i adds the chord (2i, 2i+3) — absent from the path graph and
	// unique per i, so recovery is checked edge by edge via HasEdge.
	acked := make([]bool, chaosOps)     // Mutate acknowledged (returned nil)
	attempted := make([]bool, chaosOps) // logged (past the degraded gate)
	edge := func(i int) (int, int) { return 2 * i, 2*i + 3 }

	// verify asserts acked ⊆ recovered ⊆ attempted against the engine's
	// recovered topology and journals the recovery bitmap.
	verify := func(e *Engine, nMuts int, when string) {
		g, ok := e.Lookup("g")
		if !ok {
			t.Fatalf("seed %d: %s: graph lost", seed, when)
		}
		var bits strings.Builder
		for i := 0; i < nMuts; i++ {
			u, v := edge(i)
			rec := g.HasEdge(u, v)
			if acked[i] && !rec {
				t.Fatalf("seed %d: %s: ACKED mutation %d (%d,%d) lost after recovery", seed, when, i, u, v)
			}
			if rec && !attempted[i] {
				t.Fatalf("seed %d: %s: mutation %d (%d,%d) recovered but was never applied", seed, when, i, u, v)
			}
			if rec {
				bits.WriteByte('1')
			} else {
				bits.WriteByte('0')
			}
		}
		logf("%s recovered=%s", when, bits.String())
	}

	rng := rand.New(rand.NewSource(seed + 0x5eed))
	nMuts := 0
	for op := 0; op < chaosOps; op++ {
		switch p := rng.Float64(); {
		case p < 0.50: // mutate
			i := nMuts
			nMuts++
			u, v := edge(i)
			_, err := e.Mutate("g", Delta{Add: [][2]int{{u, v}}})
			switch {
			case err == nil:
				acked[i], attempted[i] = true, true
				logf("mut %d ok", i)
			case errors.Is(err, syscall.EIO), errors.Is(err, syscall.ENOSPC):
				// The append met an injected fault: nothing was applied, but
				// the record can sit past the durable prefix a kill -9
				// leaves, and replay would apply it.
				attempted[i] = true
				logf("mut %d unacked", i)
			case errors.Is(err, ErrDegraded):
				// Rejected at the gate: nothing was logged.
				logf("mut %d rejected", i)
			default:
				t.Fatalf("seed %d: mutation %d: %v", seed, i, err)
			}
		case p < 0.65: // checkpoint
			if _, err := e.Checkpoint(); err != nil {
				logf("ckpt fail")
			} else {
				logf("ckpt ok")
			}
		case p < 0.85: // query (must serve even degraded; never deadlocks)
			resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
			if err != nil {
				t.Fatalf("seed %d: query: %v", seed, err)
			}
			logf("query size=%d", resp.Size)
		default: // kill -9 (no checkpoint, no seal) and restart
			dir = killImage(t, e, dir)
			in.Heal() // the replacement disk is healthy
			e = open()
			verify(e, nMuts, "crash")
			// Surviving un-acked writes are now part of the recovered
			// topology the engine continues from: treat them as acked so
			// later verifications require them to persist.
			g, _ := e.Lookup("g")
			for i := 0; i < nMuts; i++ {
				u, v := edge(i)
				if g.HasEdge(u, v) {
					acked[i] = true
				} else {
					// Not recovered: the in-memory application died with the
					// old process; the edge no longer exists anywhere.
					acked[i], attempted[i] = false, false
				}
			}
		}
	}

	// Final kill + recovery sweep.
	dir = killImage(t, e, dir)
	in.Heal()
	e = open()
	verify(e, nMuts, "final")
	health, _ := e.Health()
	logf("final health=%s fired=%d", health, in.Fired())
	return journal.String()
}
