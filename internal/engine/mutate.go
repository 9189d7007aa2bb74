package engine

import (
	"fmt"
	"time"

	"bedom/internal/graph"
)

// Delta is one batch of graph mutations (re-exported from internal/graph so
// engine callers need no second import).
type Delta = graph.Delta

// MutationInfo reports the outcome of one Mutate call.
type MutationInfo struct {
	// Graph describes the post-mutation graph, including its new cache
	// generation.
	Graph GraphInfo `json:"graph"`
	graph.DeltaResult
	// InvalidatedSubstrates is the number of cached substrates of the old
	// generation that were dropped (they are rebuilt lazily, single-flight,
	// by the next queries; substrates of other graphs are untouched).
	InvalidatedSubstrates int `json:"invalidated_substrates"`
}

// Mutate applies one mutation batch to the named graph.  On an effective
// change the graph's cache generation is bumped and only that graph's cached
// substrates are invalidated — every other graph's entries survive, and the
// next queries rebuild the mutated graph's substrates single-flight, each on
// the worker of the query that missed.  A delta that changes nothing (all
// entries duplicates or missing) keeps the generation and the cached
// substrates.
//
// Mutate itself costs O(|delta|·log deg): the merged CSR snapshot is
// materialized lazily by the first query after the delta (and cached inside
// the graph's Dynamic), so a burst of deltas with no interleaved queries
// pays one merge, not one per delta.
//
// A rejected delta changes nothing, and neither does a failed WAL append:
// a persistent engine logs the delta before it applies it, and a failed
// append degrades the engine and fails the mutation with ErrDegraded, so a
// client may retry it once a checkpoint has healed the store.  Mutations of
// one graph are serialized.  The whole check → log → apply → generation
// bump → purge sequence runs under the entry's mutation mutex, which
// resolve also takes to pair a snapshot with its generation — so queries in
// flight finish against the immutable snapshot they resolved, and no query
// can hit a stale substrate of the old generation against the new topology.
func (e *Engine) Mutate(name string, delta Delta) (MutationInfo, error) {
	// Degraded gate before any state changes: while the store is failing, the
	// in-memory topology must not drift ahead of what can ever be persisted.
	if err := e.checkWritable(); err != nil {
		return MutationInfo{}, err
	}
	e.mu.Lock()
	ent, ok := e.graphs[name]
	e.mu.Unlock()
	if !ok {
		return MutationInfo{}, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}

	start := time.Now()
	ent.mutMu.Lock()
	defer ent.mutMu.Unlock()

	if err := ent.dyn.Check(delta); err != nil {
		// Every rejection is input-derived (range, self-loop, negative
		// vertex count): surface it in the engine's invalid-request space
		// while keeping the graph-package sentinel in the chain.
		return MutationInfo{}, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	e.mu.Lock()
	if cur := e.graphs[name]; cur != ent {
		// The entry is no longer registered: its substrates are already
		// purged.  Distinguish a removed name (404-shaped) from one that was
		// concurrently re-registered (a retryable conflict — the name still
		// exists, just backed by a different graph).
		e.mu.Unlock()
		if cur != nil {
			return MutationInfo{}, fmt.Errorf("%w: graph %q was re-registered during the mutation; retry against the new graph", ErrConflict, name)
		}
		return MutationInfo{}, fmt.Errorf("%w: %q (removed during mutation)", ErrUnknownGraph, name)
	}
	// Reserve the generation the delta gets if it changes anything.  A delta
	// that changes nothing, or whose append fails, leaves it unused.
	e.nextGen++
	gen := e.nextGen
	e.mu.Unlock()

	// Log first: Mutate returns only once the record is durable (group-commit
	// fsync), so every acknowledged mutation survives a crash.  Running under
	// mutMu keeps the per-graph log order identical to the apply order, and
	// the record carries the reserved generation, so replay restores /stats
	// generations verbatim; a record that changes nothing replays as the
	// same no-op and keeps the generation.
	if e.store != nil {
		walStart := time.Now()
		lsn, err := e.store.AppendDelta(name, ent.epoch, gen, delta)
		e.stats.walAppendSeconds.ObserveSince(walStart)
		if err != nil {
			e.stats.persistErrors.Inc()
			// The store failed the WAL segment at its first failed write or
			// fsync, so every later append fails too: flip read-only.
			// Queries keep serving; the background checkpointer (or an
			// explicit Checkpoint) cuts the segment back and exits the mode
			// once the store recovers.
			e.enterDegraded(fmt.Sprintf("WAL append failed: %v", err))
			return MutationInfo{}, fmt.Errorf("%w: WAL append failed: %w", ErrDegraded, err)
		}
		e.stats.walAppends.Inc()
		ent.lastLSN = lsn
	}
	// Check accepted the delta, and the graph changes only under mutMu.
	res, _ := ent.dyn.Apply(delta)

	e.mu.Lock()
	oldGen := ent.gen
	if res.Changed() {
		ent.gen = gen
	}
	gen = ent.gen
	e.mu.Unlock()
	info := MutationInfo{Graph: ent.info(gen), DeltaResult: res}
	if gen != oldGen {
		ent.mutations.Add(1)
		e.stats.mutations.Inc()
		if res.Compacted {
			e.stats.compactions.Inc()
		}
		info.InvalidatedSubstrates = e.cache.purge(oldGen)
	}
	e.stats.mutateSeconds.ObserveSince(start)
	return info, nil
}
