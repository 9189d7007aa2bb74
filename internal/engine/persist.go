package engine

import (
	"errors"
	"fmt"
	"time"

	"bedom/internal/graph"
	"bedom/internal/store"
)

// ErrNoStore is returned by persistence operations (Checkpoint) on an engine
// that was constructed without a data directory.
var ErrNoStore = errors.New("engine: no data directory configured")

// Open returns an engine whose state survives process death: registered
// graphs are persisted as checksummed snapshots, every applied delta is teed
// into the store's WAL before Mutate acknowledges it, and this constructor
// replays snapshot+WAL so the restarted engine serves exactly the topologies
// the dead one did.  The substrate pipeline is deterministic (DESIGN.md §6),
// so queries after recovery are byte-identical to queries against an engine
// that never died — dominating sets, wcol values and order positions alike.
//
// If cfg.CheckpointInterval > 0 a background checkpointer periodically folds
// the WAL into fresh snapshots (see Checkpoint).  Close seals the WAL and
// releases the data directory.
func Open(dataDir string, cfg Config) (*Engine, error) {
	st, rec, err := store.Open(dataDir, store.Options{
		FS: cfg.FS,
		// Raw-flag snapshots are served zero-copy from the page cache
		// whenever the platform allows; the store falls back to decoding
		// per file, so the knob is safe to leave on everywhere.
		Mmap: true,
	})
	if err != nil {
		return nil, err
	}
	e := New(cfg)
	if err := e.adoptStore(st, rec); err != nil {
		// adoptStore has already attached the store, so Close seals the WAL
		// and releases the directory lock.
		e.Close()
		return nil, err
	}
	if cfg.CheckpointInterval > 0 {
		e.startCheckpointer(cfg.CheckpointInterval)
	}
	return e, nil
}

// adoptStore attaches st and rebuilds the registry from its recovery scan.
// Snapshots and WAL records both carry the cache generation the original
// engine assigned, so recovery restores generations verbatim — /stats
// continues exactly where the dead process stopped, for any interleaving of
// registrations and mutations.
func (e *Engine) adoptStore(st *store.Store, rec *store.Recovery) error {
	e.store = st
	byName := make(map[string]*graphEntry, len(rec.Graphs))
	var maxGen uint64
	for _, rg := range rec.Graphs {
		ent := &graphEntry{
			name:    rg.Meta.Name,
			gen:     rg.Meta.Gen,
			dyn:     graph.NewDynamic(rg.Graph, 0),
			epoch:   rg.Meta.Epoch,
			lastLSN: rg.Meta.CoveredLSN,
		}
		if rg.Raw {
			// A varint file keeps the zero pair, so the next checkpoint
			// rewrites it raw; replayed records move the live pair.
			ent.snapGen, ent.snapLSN = rg.Meta.Gen, rg.Meta.CoveredLSN
		}
		byName[ent.name] = ent
		if rg.Meta.Gen > maxGen {
			maxGen = rg.Meta.Gen
		}
	}
	for _, r := range rec.Records {
		// nextGen must exceed every generation ever persisted — including
		// skipped records' — so no future registration or mutation can ever
		// reuse a generation number.
		if r.Gen > maxGen {
			maxGen = r.Gen
		}
		ent, ok := byName[r.Graph]
		if !ok || ent.epoch != r.Epoch || r.LSN <= ent.lastLSN {
			// The record belongs to a removed graph, to an earlier
			// registration of the name, or is already folded into the
			// snapshot — all legitimately skippable.
			e.replaySkipped++
			continue
		}
		res, err := ent.dyn.Apply(r.Delta)
		if err != nil {
			// Only validated deltas are ever appended, so a rejected replay
			// means the log and snapshot disagree — refuse to serve rather
			// than silently diverge.
			return fmt.Errorf("engine: WAL replay: record lsn=%d graph=%q: %w", r.LSN, r.Graph, err)
		}
		ent.lastLSN = r.LSN
		if res.Changed() {
			ent.gen = r.Gen
		}
		e.replayed++
	}
	e.mu.Lock()
	for name, ent := range byName {
		e.graphs[name] = ent
	}
	if maxGen > e.nextGen {
		e.nextGen = maxGen
	}
	e.mu.Unlock()
	return nil
}

// persistRegistration writes the just-registered graph's snapshot before the
// registry publishes it, assigning the registration its epoch.  The returned
// (epoch, coveredLSN) pair seeds the entry's WAL bookkeeping: coveredLSN is
// read before publication, so every delta the new entry ever logs has a
// larger LSN.
func (e *Engine) persistRegistration(name string, gen uint64, dyn *graph.Dynamic) (epoch, covered uint64, err error) {
	epoch = e.store.NextEpoch()
	covered = e.store.LastLSN()
	meta := store.SnapshotMeta{Name: name, Epoch: epoch, CoveredLSN: covered, Gen: gen}
	start := time.Now()
	err = e.store.SaveSnapshot(meta, dyn.Snapshot())
	e.stats.snapshotWriteSeconds.ObserveSince(start)
	if err != nil {
		e.stats.persistErrors.Inc()
		// Nothing was published (temp+rename never touched the final name),
		// but the store just proved unwritable — degrade so mutations of
		// other graphs stop being acknowledged against a failing disk.
		e.enterDegraded(fmt.Sprintf("snapshot write for %q failed: %v", name, err))
		return 0, 0, fmt.Errorf("engine: persisting graph %q: %w", name, err)
	}
	e.stats.snapshotWrites.Inc()
	return epoch, covered, nil
}

// CheckpointInfo reports one completed checkpoint cycle.
type CheckpointInfo struct {
	// Graphs is the number of snapshots written.
	Graphs int `json:"graphs"`
	// SegmentsRemoved is the number of obsolete WAL segments deleted.
	SegmentsRemoved int `json:"segments_removed"`
	// LastLSN is the WAL position after the cycle.
	LastLSN uint64 `json:"last_lsn"`
}

// Checkpoint folds the WAL into fresh snapshots: the live WAL segment is
// rotated, every registered graph whose snapshot is not current is
// re-snapshotted at its current topology (recording the covered WAL
// position), and the sealed segments are deleted.  A snapshot is current
// while the graph's generation and lastLSN are those it was written at, so
// it covers every record of the graph in the sealed segments; a cycle that
// begins degraded rewrites every graph.  Deltas arriving mid-checkpoint
// land in the new live segment with LSNs beyond what their graph's
// snapshot covers, so a crash at ANY point of the cycle recovers correctly:
// until the old segments are removed they are still replayed, and
// afterwards every surviving record is either covered by a snapshot
// (skipped via CoveredLSN) or genuinely newer (applied).
//
// Checkpoint serializes with Register and Remove (registrations write
// snapshot files too); mutations and queries of a graph are blocked only
// while that one graph's snapshot is encoded.
func (e *Engine) Checkpoint() (CheckpointInfo, error) {
	if e.store == nil {
		return CheckpointInfo{}, ErrNoStore
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	start := time.Now()
	degraded := e.degraded.Load() != nil

	obsolete, err := e.store.RotateWAL()
	if err != nil {
		e.stats.persistErrors.Inc()
		e.enterDegraded(fmt.Sprintf("checkpoint rotate failed: %v", err))
		return CheckpointInfo{}, fmt.Errorf("engine: checkpoint rotate: %w", err)
	}
	e.mu.Lock()
	ents := make([]*graphEntry, 0, len(e.graphs))
	for _, ent := range e.graphs {
		ents = append(ents, ent)
	}
	e.mu.Unlock()
	info := CheckpointInfo{}
	for _, ent := range ents {
		wrote, err := e.writeSnapshot(ent, degraded)
		if err != nil {
			e.enterDegraded(fmt.Sprintf("checkpoint snapshot %q failed: %v", ent.name, err))
			return info, fmt.Errorf("engine: checkpoint snapshot %q: %w", ent.name, err)
		}
		if wrote {
			info.Graphs++
		}
	}
	if err := e.store.RemoveSegments(obsolete); err != nil {
		e.stats.persistErrors.Inc()
		e.enterDegraded(fmt.Sprintf("checkpoint cleanup failed: %v", err))
		return info, fmt.Errorf("engine: checkpoint cleanup: %w", err)
	}
	info.SegmentsRemoved = len(obsolete)
	info.LastLSN = e.store.LastLSN()
	e.lastCkptLSN.Store(info.LastLSN)
	e.ckptRan.Store(true)
	e.stats.checkpoints.Inc()
	e.stats.checkpointSeconds.ObserveSince(start)
	// A cycle that began degraded just rotated the WAL, rewrote every
	// snapshot and fsynced the directory — the strongest writable-again
	// proof the engine has — so it exits degraded mode.  A cycle that
	// began writable proves nothing about a failure that struck during it.
	if degraded {
		e.clearDegraded()
	}
	return info, nil
}

// writeSnapshot rewrites the snapshot of a registered graph at its live
// topology, generation and covered WAL position, unless the snapshot is
// current and force is unset; wrote reports whether it wrote one.  The
// caller holds ckptMu.  The triple is captured under mutMu and encoded and
// written OUTSIDE the lock: queries (resolve) and mutations of the graph
// stall only for the capture, not for the disk write.  A delta landing
// mid-write gets an LSN beyond the captured CoveredLSN and replays
// correctly, and no deletion can interleave, because Remove holds ckptMu
// for its whole critical section.
func (e *Engine) writeSnapshot(ent *graphEntry, force bool) (wrote bool, err error) {
	ent.mutMu.Lock()
	e.mu.Lock()
	gen := ent.gen
	registered := e.graphs[ent.name] == ent
	e.mu.Unlock()
	current := gen == ent.snapGen && ent.lastLSN == ent.snapLSN
	if !registered || (current && !force) {
		ent.mutMu.Unlock()
		return false, nil
	}
	meta := store.SnapshotMeta{Name: ent.name, Epoch: ent.epoch, CoveredLSN: ent.lastLSN, Gen: gen}
	snap := ent.dyn.Snapshot()
	ent.mutMu.Unlock()
	start := time.Now()
	err = e.store.SaveSnapshot(meta, snap)
	e.stats.snapshotWriteSeconds.ObserveSince(start)
	if err != nil {
		e.stats.persistErrors.Inc()
		return false, err
	}
	e.stats.snapshotWrites.Inc()
	ent.snapGen, ent.snapLSN = gen, meta.CoveredLSN
	return true, nil
}

// startCheckpointer launches the background checkpoint loop: every interval
// it checkpoints if (and only if) the WAL advanced since the last cycle.
func (e *Engine) startCheckpointer(interval time.Duration) {
	e.ckptStop = make(chan struct{})
	e.ckptDone = make(chan struct{})
	go func() {
		defer close(e.ckptDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.ckptStop:
				return
			case <-t.C:
				// While degraded, force a cycle even though the WAL cannot
				// have advanced (mutations are rejected): a successful
				// checkpoint is the automatic recovery path.
				if e.degraded.Load() == nil && e.ckptRan.Load() && e.store.LastLSN() == e.lastCkptLSN.Load() {
					continue // nothing new to fold
				}
				if _, err := e.Checkpoint(); err != nil {
					// Counted in persistErrors by Checkpoint itself; the
					// next tick retries.
					continue
				}
			}
		}
	}()
}

// closePersistence stops the checkpointer and seals the WAL.  It runs at
// most once (Engine.Close may be called from multiple cleanup paths).
func (e *Engine) closePersistence() {
	e.closeOnce.Do(func() {
		if e.ckptStop != nil {
			close(e.ckptStop)
			<-e.ckptDone
		}
		if e.store != nil {
			if err := e.store.Close(); err != nil {
				e.stats.persistErrors.Add(1)
			}
		}
	})
}
