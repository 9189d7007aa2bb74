package order

import (
	"fmt"
	"sort"

	"bedom/internal/graph"
)

// PathTo is a weak-reachability witness: a path from the owning vertex w to
// the weakly reachable vertex Target; Path[0] = w and Path[len-1] = Target,
// and every vertex of the path is ≥_L Target.  Its length (number of edges)
// is len(Path)-1 ≤ r.
type PathTo struct {
	Target int
	Path   []int
}

// Witnesses holds the weak s-reachability sets together with one witness
// path per pair.  The witnessing path from w to u ∈ WReach_s[G, L, w] is a
// shortest path from w to u inside the subgraph induced by the vertices ≥_L
// u (the cluster X_u), exactly the paths learned by the distributed
// Algorithm 4 (Lemma 7 of the paper).
//
// Paths are not stored: the restricted BFS from u records, for every vertex
// w it discovers, the vertex it reached w from — one int32 per pair, in a
// column aligned with the sets' id array.  That parent is itself in X_u and one step closer to u, so u is
// in its set too, and AppendPath follows parents until it arrives at u.
type Witnesses struct {
	// Sweep holds the sets, as WReachSweep returns them, with the homes and
	// the depth of the same searches.
	Sweep
	// next[Sets.off[w]+j] is the vertex after w on the witness path from w
	// to Sets.Of(w)[j] (w itself when that vertex is w).
	next []int32
	pos  []int // the order's vertex → position map
}

// WReachWitnesses computes the weak s-reachability sets of g under o with
// their witness paths, fanned out over the given number of workers (0 =
// GOMAXPROCS).  It runs the same sharded restricted BFS as WReachSweep,
// with the homes at radius rho (none for a negative rho), keeping the BFS
// parent of every discovered pair; the sets, homes and paths are identical
// for every worker count.
func WReachWitnesses(g *graph.Graph, o *Order, s, rho, workers int) *Witnesses {
	sw, next := wreach(g, o, s, rho, workers, true)
	return &Witnesses{Sweep: sw, next: next, pos: o.pos}
}

// AppendPath appends the witness path from w to its j'th weakly reachable
// vertex Sets.Of(w)[j] to dst and returns the extended slice: w first, the
// target last, every vertex ≥_L the target, at most s edges.  Each step
// finds the target in the next vertex's position-sorted set by binary
// search.
func (x *Witnesses) AppendPath(dst []int, w, j int) []int {
	u := int(x.Sets.Of(w)[j])
	pu := x.pos[u]
	dst = append(dst, w)
	for w != u {
		w = int(x.next[x.Sets.off[w]+j])
		dst = append(dst, w)
		set := x.Sets.Of(w)
		j = sort.Search(len(set), func(i int) bool { return x.pos[set[i]] >= pu })
	}
	return dst
}

// VerifyWitnesses checks that a witness structure is internally consistent
// with the definition of weak reachability: every path starts at the owning
// vertex, ends at the target, has length ≤ r, uses only edges of g and only
// vertices ≥_L the target.  It returns the first violation found, or nil.
func VerifyWitnesses(g *graph.Graph, o *Order, r int, witnesses [][]PathTo) error {
	for w, ws := range witnesses {
		for _, pt := range ws {
			if err := verifyOnePath(g, o, r, w, pt); err != nil {
				return err
			}
		}
	}
	return nil
}

func verifyOnePath(g *graph.Graph, o *Order, r, w int, pt PathTo) error {
	p := pt.Path
	if len(p) == 0 || p[0] != w || p[len(p)-1] != pt.Target {
		return errPath(w, pt, "endpoints")
	}
	if len(p)-1 > r {
		return errPath(w, pt, "too long")
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			return errPath(w, pt, "non-edge")
		}
	}
	for _, x := range p {
		if o.Less(x, pt.Target) {
			return errPath(w, pt, "vertex below target")
		}
	}
	return nil
}

func errPath(w int, pt PathTo, reason string) error {
	return fmt.Errorf("order: invalid weak-reachability witness from %d to %d (%v): %s",
		w, pt.Target, pt.Path, reason)
}
