package order

import "bedom/internal/graph"

// substrateWorkers resolves a substrate worker-count knob: 0 (or negative)
// means GOMAXPROCS, and there is never a point in more workers than items.
func substrateWorkers(workers, n int) int { return graph.ResolveWorkers(workers, n) }

// parallelBlocks fans contiguous blocks of [0, n) across workers; see
// graph.ParallelBlocks for the determinism contract.
func parallelBlocks(n, workers int, fn func(k, lo, hi int)) {
	graph.ParallelBlocks(n, workers, fn)
}
