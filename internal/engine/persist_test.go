package engine

import (
	"context"
	"errors"
	iofs "io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bedom/internal/fault"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/solver"
)

// openPersistent opens a persistent engine on dir, closing it with the test.
func openPersistent(t *testing.T, dir string, cfg Config) *Engine {
	t.Helper()
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// crash simulates process death: the engine is closed WITHOUT a checkpoint
// (Close never checkpoints), so recovery must reconstruct state from the
// registration snapshot plus the WAL alone — exactly what a kill -9 after
// the last acknowledged mutation leaves behind.
func crash(e *Engine) { e.Close() }

// killImage returns the data directory a kill -9 of e would leave: a copy
// of dir taken while e is live, without the LOCK file.  Unlike crash, the
// WAL is not sealed, so a failed segment keeps whatever reached the file
// past its durable prefix.  It then closes e, which touches only dir.
func killImage(t *testing.T, e *Engine, dir string) string {
	t.Helper()
	img := t.TempDir()
	err := filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		switch {
		case d.IsDir():
			return os.MkdirAll(filepath.Join(img, rel), 0o755)
		case rel == "LOCK":
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(img, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("kill image of %s: %v", dir, err)
	}
	e.Close()
	return img
}

// TestCrashRecoveryDeterminism is the acceptance contract: for substrate
// worker counts 1, 2 and 8, an engine recovered from snapshot+WAL after a
// simulated crash answers byte-identically to an engine that never died —
// dominating sets, wcol values and order positions.
func TestCrashRecoveryDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		cfg := Config{SubstrateWorkers: workers}

		// Engine that never dies, serving the same registration + deltas.
		undying := testEngine(t, cfg)
		if _, err := undying.Register("g", gen.Grid(24, 24)); err != nil {
			t.Fatal(err)
		}
		if _, err := undying.Mutate("g", mutateTestDelta()); err != nil {
			t.Fatal(err)
		}

		// Persistent engine: register, query (warming caches that must NOT
		// leak across the crash), mutate, crash.
		victim := openPersistent(t, dir, cfg)
		if _, err := victim.Register("g", gen.Grid(24, 24)); err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2}); err != nil {
			t.Fatal(err)
		}
		preInfo, err := victim.Mutate("g", mutateTestDelta())
		if err != nil {
			t.Fatal(err)
		}
		crash(victim)

		revived := openPersistent(t, dir, cfg)
		gi, ok := revived.Info("g")
		if !ok {
			t.Fatalf("workers=%d: graph lost in crash", workers)
		}
		if gi.N != preInfo.Graph.N || gi.M != preInfo.Graph.M || gi.Gen != preInfo.Graph.Gen {
			t.Fatalf("workers=%d: recovered %+v, pre-crash %+v", workers, gi, preInfo.Graph)
		}
		if st := revived.Stats(); st.Persist == nil || st.Persist.ReplayedRecords != 1 {
			t.Fatalf("workers=%d: persist stats %+v", workers, st.Persist)
		}

		for _, kind := range []Kind{KindDominatingSet, KindCover} {
			a, err := revived.Do(context.Background(), Request{Graph: "g", Kind: kind, R: 2})
			if err != nil {
				t.Fatal(err)
			}
			b, err := undying.Do(context.Background(), Request{Graph: "g", Kind: kind, R: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(a.Set, b.Set) || a.Size != b.Size || a.LowerBound != b.LowerBound || a.Wcol != b.Wcol {
				t.Fatalf("workers=%d kind=%s: recovered engine diverges from undying engine", workers, kind)
			}
		}
		oa := namedOrder(t, revived, "g", 2)
		ob := namedOrder(t, undying, "g", 2)
		if !equalInts(oa.Positions(), ob.Positions()) {
			t.Fatalf("workers=%d: order positions diverge after recovery", workers)
		}
	}
}

// TestCrashRecoveryAfterCheckpoint covers the compacted path: checkpoint
// folds the WAL into snapshots, more deltas land after it, and recovery must
// compose snapshot + post-checkpoint WAL records.
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	if _, err := e.Register("g", gen.Grid(10, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 11}}}); err != nil {
		t.Fatal(err)
	}
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Graphs != 1 || ck.SegmentsRemoved == 0 {
		t.Fatalf("checkpoint %+v", ck)
	}
	post, err := e.Mutate("g", Delta{Add: [][2]int{{0, 22}}, Remove: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	gi, ok := revived.Info("g")
	if !ok || gi.N != post.Graph.N || gi.M != post.Graph.M || gi.Gen != post.Graph.Gen {
		t.Fatalf("recovered %+v (ok=%v), pre-crash %+v", gi, ok, post.Graph)
	}
	st := revived.Stats()
	if st.Persist.ReplayedRecords != 1 {
		t.Fatalf("want exactly the post-checkpoint record replayed, got %+v", st.Persist)
	}
	g, _ := revived.Lookup("g")
	if !g.HasEdge(0, 11) || !g.HasEdge(0, 22) || g.HasEdge(0, 1) {
		t.Fatal("recovered topology wrong")
	}
}

// TestKillAfterFailedAppendRecovers: a WAL fsync fault (or a torn write)
// fails its mutation, and the data directory a kill -9 leaves before any
// checkpoint, with the failed segment uncut, opens with every acknowledged
// mutation.  The failed one may surface too: its record can reach the file
// even though it was never acknowledged.
func TestKillAfterFailedAppendRecovers(t *testing.T) {
	for _, f := range []fault.Fault{
		{Op: fault.OpSync, Path: "wal-", Err: fault.ErrIO},
		{Op: fault.OpWrite, Path: "wal-", Err: fault.ErrNoSpace, Torn: true},
	} {
		dir := t.TempDir()
		in := fault.NewInjector(nil)
		e, err := Open(dir, Config{FS: in})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Register("g", gen.Path(16)); err != nil {
			t.Fatal(err)
		}
		acked := [][2]int{{0, 5}, {1, 7}}
		for _, uv := range acked {
			if _, err := e.Mutate("g", Delta{Add: [][2]int{uv}}); err != nil {
				t.Fatal(err)
			}
		}
		in.Add(f)
		if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 6}}}); !errors.Is(err, f.Err) {
			t.Fatalf("%v fault: Mutate returned %v, want the injected store error", f.Op, err)
		}
		img := killImage(t, e, dir)
		revived, err := Open(img, Config{})
		if err != nil {
			t.Fatalf("%v fault: Open of the kill -9 image: %v", f.Op, err)
		}
		g, _ := revived.Lookup("g")
		for _, uv := range acked {
			if !g.HasEdge(uv[0], uv[1]) {
				t.Fatalf("%v fault: acknowledged edge %v lost", f.Op, uv)
			}
		}
		if extra := g.M() - gen.Path(16).M() - len(acked); extra != 0 && !(extra == 1 && g.HasEdge(0, 6)) {
			t.Fatalf("%v fault: recovered %d edges beyond the path and the acknowledged ones", f.Op, extra)
		}
		revived.Close()
	}
}

// TestCheckpointWritesOnlyChangedGraphs: a checkpoint writes the graphs
// whose generation or lastLSN moved since their snapshot, and leaves the
// others' snapshots, which still recover them.
func TestCheckpointWritesOnlyChangedGraphs(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	for _, name := range []string{"g", "h"} {
		if _, err := e.Register(name, gen.Grid(6, 6)); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func(what string, want int) {
		t.Helper()
		written := e.Stats().Persist.SnapshotsWritten
		ck, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if n := e.Stats().Persist.SnapshotsWritten - written; ck.Graphs != want || n != uint64(want) {
			t.Fatalf("%s: checkpoint wrote %d snapshots (reported %d), want %d", what, n, ck.Graphs, want)
		}
	}
	checkpoint("after registration", 0)
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 7}}}); err != nil {
		t.Fatal(err)
	}
	checkpoint("one graph mutated", 1)
	checkpoint("no mutation since the last checkpoint", 0)
	crash(e)

	revived := openPersistent(t, dir, Config{})
	for name, edge := range map[string]bool{"g": true, "h": false} {
		g, ok := revived.Lookup(name)
		if !ok || g.HasEdge(0, 7) != edge || g.N() != 36 {
			t.Fatalf("graph %q after restart: ok=%v, has (0,7) %v, want %v", name, ok, ok && g.HasEdge(0, 7), edge)
		}
	}
	if st := revived.Stats().Persist; st.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records, want every one covered by a snapshot", st.ReplayedRecords)
	}
}

// TestCheckpointRewritesAfterFailedAppend: a failed WAL append moves
// neither its graph's generation nor its lastLSN, so a checkpoint whose
// degraded mode was cleared by hand writes nothing, while one that begins
// degraded rewrites every graph; the checkpoint after either writes
// nothing, and a restart does not hold the failed edge.
func TestCheckpointRewritesAfterFailedAppend(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		dir := t.TempDir()
		in := fault.NewInjector(nil)
		e, err := Open(dir, Config{FS: in})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"g", "h"} {
			if _, err := e.Register(name, gen.Path(16)); err != nil {
				t.Fatal(err)
			}
		}
		in.Add(fault.Fault{Op: fault.OpSync, Path: "wal-", Err: fault.ErrIO})
		if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 6}}}); err == nil {
			t.Fatal("Mutate through a failed fsync succeeded")
		}
		if g, _ := e.Lookup("g"); g.HasEdge(0, 6) {
			t.Fatalf("degraded=%v: the failed edge (0,6) is applied in memory", degraded)
		}
		want := 2
		if !degraded {
			e.clearDegraded()
			want = 0
		}
		ck, err := e.Checkpoint()
		if err != nil || ck.Graphs != want {
			t.Fatalf("degraded=%v: checkpoint %+v, %v; want %d snapshots", degraded, ck, err, want)
		}
		if state, _ := e.Health(); state != HealthOK {
			t.Fatalf("degraded=%v: health %q after the checkpoint", degraded, state)
		}
		if ck, err := e.Checkpoint(); err != nil || ck.Graphs != 0 {
			t.Fatalf("degraded=%v: the next checkpoint %+v, %v; want no snapshot", degraded, ck, err)
		}
		crash(e)
		revived, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if g, _ := revived.Lookup("g"); g.HasEdge(0, 6) {
			t.Fatalf("degraded=%v: the failed edge (0,6) is present after restart", degraded)
		}
		revived.Close()
	}
}

// TestFailedAppendChangesNothing: a mutation whose WAL append fails, by a
// failed fsync or a torn write, fails with ErrDegraded and the store's
// error and leaves the graph as it was: Lookup and Info show the old
// topology and generation.  After the disk heals, a checkpoint and a
// restart, the failed edge is absent.
func TestFailedAppendChangesNothing(t *testing.T) {
	for _, f := range []fault.Fault{
		{Op: fault.OpSync, Path: "wal-", Err: fault.ErrIO},
		{Op: fault.OpWrite, Path: "wal-", Err: fault.ErrNoSpace, Torn: true},
	} {
		dir := t.TempDir()
		in := fault.NewInjector(nil)
		e, err := Open(dir, Config{FS: in})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Register("g", gen.Path(16)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 5}}}); err != nil {
			t.Fatal(err)
		}
		before, _ := e.Info("g")
		in.Add(f)
		if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 6}}}); !errors.Is(err, ErrDegraded) || !errors.Is(err, f.Err) {
			t.Fatalf("%v fault: Mutate returned %v, want ErrDegraded and the injected store error", f.Op, err)
		}
		if after, _ := e.Info("g"); after != before {
			t.Fatalf("%v fault: Info after the failed append %+v, want %+v", f.Op, after, before)
		}
		if g, _ := e.Lookup("g"); g.HasEdge(0, 6) || g.M() != before.M {
			t.Fatalf("%v fault: the failed edge (0,6) is applied in memory", f.Op)
		}
		in.Heal()
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		crash(e)
		revived, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if g, _ := revived.Lookup("g"); g.HasEdge(0, 6) || !g.HasEdge(0, 5) {
			t.Fatalf("%v fault: after restart, (0,6) present %v and (0,5) present %v; want false and true", f.Op, g.HasEdge(0, 6), g.HasEdge(0, 5))
		}
		revived.Close()
	}
}

// TestRecoveryskipsStaleEpochs re-registers a name (bumping its epoch) and
// crashes: the first registration's deltas must not replay onto the second
// registration's graph.
func TestRecoverySkipsStaleEpochs(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	if _, err := e.Register("g", gen.Grid(5, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 6}}}); err != nil {
		t.Fatal(err)
	}
	// Re-register: fresh epoch, fresh snapshot; the old delta is now stale.
	if _, err := e.Register("g", gen.Cycle(30)); err != nil {
		t.Fatal(err)
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	g, ok := revived.Lookup("g")
	if !ok {
		t.Fatal("graph lost")
	}
	if g.N() != 30 || g.M() != 30 || g.HasEdge(0, 6) {
		t.Fatalf("stale delta leaked into re-registered graph: %v", g)
	}
	if st := revived.Stats(); st.Persist.SkippedRecords != 1 {
		t.Fatalf("want 1 skipped record, got %+v", st.Persist)
	}
}

// TestFailedRemoveChangesNothing: a removal whose snapshot deletion fails
// leaves the graph registered, listed and queryable and degrades the
// engine, which then rejects removals at the gate; after the disk heals and
// a checkpoint, the removal succeeds and survives a restart.
func TestFailedRemoveChangesNothing(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(nil)
	e, err := Open(dir, Config{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("g", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	in.Add(fault.Fault{Op: fault.OpRemove, Path: "graphs"})
	if ok, err := e.Remove("g"); !ok || !errors.Is(err, ErrDegraded) || !errors.Is(err, fault.ErrIO) {
		t.Fatalf("Remove through a failed delete: %v %v, want true and ErrDegraded with the injected store error", ok, err)
	}
	if gs := e.Graphs(); len(gs) != 1 || gs[0].Name != "g" {
		t.Fatalf("graphs after the failed removal: %+v", gs)
	}
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatalf("query after the failed removal: %v", err)
	}
	if state, _ := e.Health(); state != HealthDegraded {
		t.Fatalf("health after the failed removal %q, want degraded", state)
	}
	if _, err := e.Remove("g"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Remove while degraded: %v, want ErrDegraded", err)
	}
	in.Heal()
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Remove("g"); !ok || err != nil {
		t.Fatalf("Remove after the checkpoint: %v %v", ok, err)
	}
	crash(e)
	revived := openPersistent(t, dir, Config{})
	if _, ok := revived.Info("g"); ok {
		t.Fatal("removed graph served after restart")
	}
}

func TestRemoveIsDurable(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	if _, err := e.Register("keep", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("drop", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate("drop", Delta{Add: [][2]int{{0, 5}}}); err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Remove("drop"); !ok || err != nil {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	if _, ok := revived.Info("drop"); ok {
		t.Fatal("removed graph resurrected after restart")
	}
	if _, ok := revived.Info("keep"); !ok {
		t.Fatal("unrelated graph lost")
	}
	// The orphaned delta record of the removed graph is skipped, not fatal.
	if st := revived.Stats(); st.Persist.SkippedRecords != 1 {
		t.Fatalf("persist stats %+v", st.Persist)
	}
}

func TestCheckpointWithoutStore(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Checkpoint(); !errors.Is(err, ErrNoStore) {
		t.Fatalf("want ErrNoStore, got %v", err)
	}
	if st := e.Stats(); st.Persist != nil {
		t.Fatalf("non-persistent engine reports persist stats %+v", st.Persist)
	}
}

// TestBackgroundCheckpointer exercises the interval loop: a mutation makes
// the WAL dirty, and within a few ticks the checkpointer folds it.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{CheckpointInterval: 10 * time.Millisecond})
	if _, err := e.Register("g", gen.Grid(6, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 7}}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats()
		if st.Persist.Checkpoints >= 1 && st.Persist.LastCheckpointLSN >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never ran: %+v", st.Persist)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Idle ticks must not pile up further checkpoints.
	before := e.Stats().Persist.Checkpoints
	time.Sleep(50 * time.Millisecond)
	if after := e.Stats().Persist.Checkpoints; after != before {
		t.Fatalf("idle checkpoints: %d -> %d", before, after)
	}
}

// TestMutateDurability asserts the ack contract directly: every mutation
// acknowledged before the crash is present after recovery, across enough
// deltas to span several WAL batches and a mid-stream checkpoint.
func TestMutateDurability(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	base := graph.New(200)
	base.Finalize()
	if _, err := e.Register("g", base); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := e.Mutate("g", Delta{Add: [][2]int{{i, i + 100}}}); err != nil {
			t.Fatal(err)
		}
		if i == 25 {
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	g, ok := revived.Lookup("g")
	if !ok {
		t.Fatal("graph lost")
	}
	for i := 0; i < 50; i++ {
		if !g.HasEdge(i, i+100) {
			t.Fatalf("acknowledged edge {%d,%d} lost", i, i+100)
		}
	}
	if g.M() != 50 {
		t.Fatalf("m=%d, want 50", g.M())
	}
}

// TestGenerationContinuityInterleaved pins the exact-generation contract for
// the tricky interleaving: a mutation logged BEFORE a later registration
// raised the global counter must replay with its original generation, not a
// recomputed one.
func TestGenerationContinuityInterleaved(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	if _, err := e.Register("a", gen.Grid(4, 4)); err != nil { // gen 1
		t.Fatal(err)
	}
	mutA, err := e.Mutate("a", Delta{Add: [][2]int{{0, 5}}}) // gen 2, WAL lsn 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("b", gen.Grid(3, 3)); err != nil { // gen 3
		t.Fatal(err)
	}
	preA, _ := e.Info("a")
	preB, _ := e.Info("b")
	if preA.Gen != mutA.Graph.Gen {
		t.Fatalf("setup: a's gen %d != mutation gen %d", preA.Gen, mutA.Graph.Gen)
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	postA, _ := revived.Info("a")
	postB, _ := revived.Info("b")
	if postA.Gen != preA.Gen || postB.Gen != preB.Gen {
		t.Fatalf("generations not continuous: a %d->%d, b %d->%d",
			preA.Gen, postA.Gen, preB.Gen, postB.Gen)
	}
	// New work after recovery must use generations beyond everything ever
	// persisted.
	mut, err := revived.Mutate("a", Delta{Add: [][2]int{{0, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Graph.Gen <= preB.Gen {
		t.Fatalf("post-recovery gen %d not beyond persisted max %d", mut.Graph.Gen, preB.Gen)
	}
}

// TestCrashRecoveryPerSolver asserts that crash recovery preserves
// per-solver answers: after WAL replay, every registered strategy returns
// exactly the set an engine that never died returns, and the per-solver
// cache entries rebuilt on the recovered generation stay independent.
func TestCrashRecoveryPerSolver(t *testing.T) {
	dir := t.TempDir()
	undying := testEngine(t, Config{})
	if _, err := undying.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := undying.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}

	victim := openPersistent(t, dir, Config{})
	if _, err := victim.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	// Warm every strategy's result cache pre-crash: none of these entries
	// may survive into the recovered generation.
	for _, name := range solver.Names() {
		if _, err := victim.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := victim.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}
	crash(victim)

	revived := openPersistent(t, dir, Config{})
	for _, name := range solver.Names() {
		a, err := revived.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := undying.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(a.Set, b.Set) || a.LowerBound != b.LowerBound || a.Wcol != b.Wcol {
			t.Fatalf("%s: recovered engine diverges from undying engine", name)
		}
		if a.Solver != name {
			t.Fatalf("recovered response solver %q, want %q", a.Solver, name)
		}
	}
	// Warm re-queries on the recovered engine serve per-solver hits.
	for _, name := range solver.Names() {
		resp, err := revived.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("%s: warm post-recovery query missed the cache", name)
		}
	}
}
