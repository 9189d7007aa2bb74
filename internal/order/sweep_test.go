package order

import (
	"testing"

	"bedom/internal/graph"
)

// TestSweepDepthEveryBlock: the sweep's depth is the deepest level over the
// searches of every block.  The graph is n = 512 isolated vertices under the
// identity order plus one path of s edges from position start, so only the
// search from start reaches depth s; start visits every block of an 8-way
// split.
func TestSweepDepthEveryBlock(t *testing.T) {
	const n = 512
	for _, s := range []int{1, 3} {
		for start := 0; start+s < n; start += n / 8 {
			edges := make([][2]int, s)
			for i := range edges {
				edges[i] = [2]int{start + i, start + i + 1}
			}
			g := graph.MustFromEdges(n, edges)
			for _, workers := range determinismWorkerCounts {
				for _, rho := range []int{-1, 0, s} {
					if got := WReachSweep(g, Identity(n), s, rho, workers).Depth; got != s {
						t.Fatalf("path at %d, s=%d rho=%d workers=%d: depth %d, want %d", start, s, rho, workers, got, s)
					}
				}
				if got := WReachWitnesses(g, Identity(n), s, 0, workers).Depth; got != s {
					t.Fatalf("path at %d, s=%d workers=%d: witness sweep depth %d, want %d", start, s, workers, got, s)
				}
			}
		}
	}
}
