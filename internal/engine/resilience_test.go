package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bedom/internal/fault"
	"bedom/internal/gen"
)

// TestDegradedModeEntryAndExit pins the degraded-mode state machine: a dead
// disk (sticky WAL fsync failure) fails the mutation with the disk's error
// and flips the engine read-only — further mutations and registrations get
// ErrDegraded, queries keep serving — and a successful checkpoint after the
// disk heals exits the mode.
func TestDegradedModeEntryAndExit(t *testing.T) {
	in := fault.NewInjector(nil)
	e := openPersistent(t, t.TempDir(), Config{FS: in})
	if _, err := e.Register("g", gen.Grid(8, 8)); err != nil {
		t.Fatal(err)
	}

	// Kill the disk: every WAL fsync fails from now on.
	in.Add(fault.Fault{Op: fault.OpSync, Path: "wal-", Err: fault.ErrNoSpace, Sticky: true})
	_, err := e.Mutate("g", Delta{Add: [][2]int{{0, 9}}})
	if err == nil {
		t.Fatal("Mutate succeeded on a dead disk")
	}
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("first failing mutation should surface the injected store error: %v", err)
	}
	if e.degraded.Load() == nil {
		t.Fatal("engine not degraded after persistent WAL failure")
	}
	if state, reason := e.Health(); state != HealthDegraded || reason == "" {
		t.Fatalf("Health = (%q, %q), want degraded with a reason", state, reason)
	}

	// Writes are rejected with ErrDegraded; reads keep serving from memory.
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 18}}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Mutate while degraded: %v, want ErrDegraded", err)
	}
	if _, err := e.Register("h", gen.Path(4)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Register while degraded: %v, want ErrDegraded", err)
	}
	resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
	if err != nil || len(resp.Set) == 0 {
		t.Fatalf("query while degraded: %v (resp %+v)", err, resp)
	}
	st := e.Stats()
	if !st.Degraded || st.DegradedReason == "" || st.DegradedTransitions != 1 {
		t.Fatalf("Stats degraded surface: degraded=%v reason=%q transitions=%d",
			st.Degraded, st.DegradedReason, st.DegradedTransitions)
	}

	// A checkpoint against the still-dead disk fails and stays degraded.
	if _, err := e.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded on a dead disk")
	}
	if e.degraded.Load() == nil {
		t.Fatal("engine left degraded mode without a successful checkpoint")
	}

	// Disk recovers: the next checkpoint exits degraded mode and mutations
	// are acknowledged again.
	in.Heal()
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after heal: %v", err)
	}
	if e.degraded.Load() != nil {
		t.Fatal("engine still degraded after successful checkpoint")
	}
	if state, _ := e.Health(); state != HealthOK {
		t.Fatalf("Health after recovery = %q, want ok", state)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 18}}}); err != nil {
		t.Fatalf("Mutate after recovery: %v", err)
	}
	if got := e.Stats().DegradedTransitions; got != 1 {
		t.Fatalf("DegradedTransitions = %d, want 1 (entry counted once per outage)", got)
	}
}

// TestDegradedReadingsCarryTheirReason: the mode and its reason are one
// value, so Health, Stats and checkWritable never report degraded mode
// without its reason while other goroutines enter and clear it.
func TestDegradedReadingsCarryTheirReason(t *testing.T) {
	e := testEngine(t, Config{})
	const reason = "disk on fire"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.enterDegraded(reason)
				e.clearDegraded()
			}
		}()
	}
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for j := 0; j < 2000; j++ {
				if state, got := e.Health(); state == HealthDegraded && got != reason {
					t.Errorf("Health = (%q, %q), want reason %q", state, got, reason)
					return
				}
				if st := e.Stats(); st.Degraded && st.DegradedReason != reason {
					t.Errorf("Stats: degraded with reason %q, want %q", st.DegradedReason, reason)
					return
				}
				if err := e.checkWritable(); err != nil && !strings.Contains(err.Error(), reason) {
					t.Errorf("checkWritable = %v, want reason %q", err, reason)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestCheckpointerAutoRecovers: the background checkpointer must force a
// cycle while degraded (the WAL cannot advance — mutations are rejected — so
// the advanced-since-last-cycle skip would otherwise wedge the engine in
// degraded mode forever).
func TestCheckpointerAutoRecovers(t *testing.T) {
	in := fault.NewInjector(nil)
	e := openPersistent(t, t.TempDir(), Config{
		FS: in, CheckpointInterval: 5 * time.Millisecond,
	})
	if _, err := e.Register("g", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	in.Add(fault.Fault{Op: fault.OpSync, Path: "wal-", Err: fault.ErrIO, Sticky: true})
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 5}}}); err == nil {
		t.Fatal("Mutate succeeded on a dead disk")
	}
	if e.degraded.Load() == nil {
		t.Fatal("not degraded")
	}
	in.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for e.degraded.Load() != nil {
		if time.Now().After(deadline) {
			t.Fatal("checkpointer did not auto-recover the engine within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 10}}}); err != nil {
		t.Fatalf("Mutate after auto-recovery: %v", err)
	}
}

// TestTransientFsyncFailureDegrades: one failed WAL fsync fails its
// mutation and degrades the engine; no retry and no later batch leader's
// fsync acknowledges a record the failed one may have lost.  One checkpoint
// heals the engine, and a restart recovers every acknowledged edge.
func TestTransientFsyncFailureDegrades(t *testing.T) {
	transientWALFailure(t, fault.Fault{Op: fault.OpSync, Path: "wal-", Err: fault.ErrIO})
}

// TestTransientWALWriteFailureHeals: a torn WAL write fails its mutation and
// degrades the engine, and the next checkpoint heals it: the rotation cuts
// the torn bytes off the failed segment instead of flushing them again.
func TestTransientWALWriteFailureHeals(t *testing.T) {
	transientWALFailure(t, fault.Fault{Op: fault.OpWrite, Path: "wal-", Err: fault.ErrNoSpace, Torn: true})
}

// transientWALFailure arms the one-shot fault f between two acknowledged
// mutations and checks the one failure rule end to end: the mutation that
// meets it fails with f's error and changes nothing, the engine degrades,
// one checkpoint heals it, and a restart recovers the topology the engine
// served, every acknowledged edge included.
func transientWALFailure(t *testing.T, f fault.Fault) {
	dir := t.TempDir()
	in := fault.NewInjector(nil)
	e, err := Open(dir, Config{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	if _, err := e.Register("g", gen.Path(16)); err != nil {
		t.Fatal(err)
	}
	acked := [][2]int{{0, 5}}
	if _, err := e.Mutate("g", Delta{Add: acked}); err != nil {
		t.Fatal(err)
	}
	in.Add(f)
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 6}}}); !errors.Is(err, f.Err) {
		t.Fatalf("Mutate through a failed WAL %v: %v, want the injected store error", f.Op, err)
	}
	if got := in.Fired(); got != 1 {
		t.Fatalf("injector fired %d times, want 1", got)
	}
	if e.degraded.Load() == nil {
		t.Fatal("engine not degraded after a failed WAL append")
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 7}}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Mutate while degraded: %v, want ErrDegraded", err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after a transient fault: %v", err)
	}
	if state, reason := e.Health(); state != HealthOK {
		t.Fatalf("Health after one checkpoint = (%q, %q), want ok", state, reason)
	}
	acked = append(acked, [2]int{0, 10})
	if _, err := e.Mutate("g", Delta{Add: acked[1:]}); err != nil {
		t.Fatalf("Mutate after the checkpoint: %v", err)
	}
	served, _ := e.Lookup("g")
	want := served.Edges()
	crash(e)

	e, err = Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := e.Lookup("g")
	for _, uv := range acked {
		if !g.HasEdge(uv[0], uv[1]) {
			t.Fatalf("acknowledged edge %v lost after restart", uv)
		}
	}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart recovered edges %v, want the served %v", got, want)
	}
}

// TestSolverPanicFailsOnlyItsQuery: a panic injected into a substrate build
// must fail each affected query with ErrQueryPanic — whether the query ran
// the build itself or coalesced onto it (no deadlock on the inflight
// channel) — and leave the engine fully serviceable once the fault clears.
func TestSolverPanicFailsOnlyItsQuery(t *testing.T) {
	// Armed flag rather than a one-shot schedule: concurrent queries may
	// serialize instead of coalescing (a failed build is not cached), and
	// then a one-shot fault would let later builds succeed.  While armed,
	// every build attempt panics, so all queries deterministically fail.
	var armed atomic.Bool
	armed.Store(true)
	hook := func(stage string) {
		if armed.Load() && strings.HasPrefix(stage, "solve:") {
			panic("solver bug")
		}
	}
	e := testEngine(t, Config{StageHook: hook, Workers: 4})
	if _, err := e.Register("g", gen.Grid(8, 8)); err != nil {
		t.Fatal(err)
	}

	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrQueryPanic) {
			t.Fatalf("query %d: %v, want ErrQueryPanic", i, err)
		}
	}
	if got := e.Stats().QueryPanics; got == 0 {
		t.Fatal("QueryPanics = 0 after injected panics")
	}

	// Fault cleared: the engine (and its worker pool) must serve the very
	// same query now.
	armed.Store(false)
	resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
	if err != nil || len(resp.Set) == 0 {
		t.Fatalf("query after panic: %v", err)
	}
}

// TestQueryStagePanicRecovered: a panic outside any cached build (the query
// dispatch stage itself) is caught by the worker-closure recovery layer.
func TestQueryStagePanicRecovered(t *testing.T) {
	stages := fault.NewStages(fault.StageFault{Stage: "query:domset", Panic: "dispatch bug"})
	e := testEngine(t, Config{StageHook: stages.Hook()})
	if _, err := e.Register("g", gen.Grid(6, 6)); err != nil {
		t.Fatal(err)
	}
	_, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
	if !errors.Is(err, ErrQueryPanic) {
		t.Fatalf("err = %v, want ErrQueryPanic", err)
	}
	if got := stages.Fired(); got != 1 {
		t.Fatalf("stage faults fired = %d, want 1", got)
	}
	// The worker survived: the pool still serves queries.
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatalf("query after dispatch panic: %v", err)
	}
}

// TestOverloadShedding pins admission control: with the one worker wedged and
// the one-slot queue occupied, the next query is shed immediately (negative
// wait budget) with ErrOverloaded, the shed counter increments, and Health
// reports overloaded while the queue is full.
func TestOverloadShedding(t *testing.T) {
	entered := make(chan struct{}, 4) // signals a query reached the worker
	block := make(chan struct{})      // holds the worker until released
	hook := func(stage string) {
		if strings.HasPrefix(stage, "query:") {
			entered <- struct{}{}
			<-block
		}
	}
	e := testEngine(t, Config{Workers: 1, QueueDepth: 1, QueueWaitBudget: -1, StageHook: hook})
	if _, err := e.Register("g", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}

	req := Request{Graph: "g", Kind: KindDominatingSet, R: 1}
	results := make(chan error, 2)
	// Query A occupies the worker (blocked inside the stage hook).
	go func() { _, err := e.Do(context.Background(), req); results <- err }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("query A never reached the worker")
	}
	// Query B fills the one queue slot (the worker is wedged on A).
	go func() { _, err := e.Do(context.Background(), req); results <- err }()
	waitFor(t, func() bool { return e.exec.queueLen() == 1 })

	if state, _ := e.Health(); state != HealthOverloaded {
		t.Fatalf("Health with a full queue = %q, want overloaded", state)
	}
	// Query C finds the queue full and is shed at once.
	_, err := e.Do(context.Background(), req)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := e.Stats().QueriesShed; got != 1 {
		t.Fatalf("QueriesShed = %d, want 1", got)
	}

	close(block)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued query %d failed after release: %v", i, err)
		}
	}
	if state, _ := e.Health(); state != HealthOK {
		t.Fatalf("Health after drain = %q, want ok", state)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimeoutDuringSubstrateBuildCounted pins the timeout-counter fix: a
// deadline expiring while the query is INSIDE a substrate build (not at
// admission) must surface context.DeadlineExceeded and increment
// bedom_query_timeouts_total.
func TestTimeoutDuringSubstrateBuildCounted(t *testing.T) {
	stages := fault.NewStages(fault.StageFault{Stage: "substrate:order", Delay: 300 * time.Millisecond, Sticky: true})
	e := testEngine(t, Config{StageHook: stages.Hook()})
	if _, err := e.Register("g", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	_, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1, Timeout: 30 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	st := e.Stats()
	if st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1 (deadline expired mid-build)", st.Timeouts)
	}
	if st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
}
