package order

import (
	"sort"

	"bedom/internal/graph"
)

// WReachSets computes, for every vertex w, the weak r-reachability set
// WReach_r[G, L, w] = { u ≤_L w : there is a path of length ≤ r from w to u
// whose minimum vertex (w.r.t. L) is u }.
//
// The returned Sets holds one set per vertex; each set is sorted by
// L-position (so element 0 is min WReach_r[G, L, w]) and always contains w
// itself.
//
// The computation mirrors Algorithm 3 of the paper run from every vertex:
// for each vertex u, a breadth-first search restricted to vertices ≥_L u and
// depth r discovers exactly the vertices w with u ∈ WReach_r[G, L, w].
// Total time is O(Σ_u |X_u| · wcol) which is linear for every fixed r on a
// bounded expansion class, and the n source searches are independent, so
// they shard across workers (see WReachSetsWorkers).  WReachSweep runs the
// same searches and also records each vertex's home and the deepest level
// reached; WReachWitnesses also keeps the witness paths.
func WReachSets(g *graph.Graph, o *Order, r int) Sets {
	return WReachSetsWorkers(g, o, r, 0)
}

// Sets holds one weak-reachability set per vertex in CSR layout: the set
// of w is ids[off[w]:off[w+1]], its vertices sorted by L-position.  One
// int32 per entry and one offset per vertex is all a sweep keeps; the
// slices Of returns share that array, so treat them as read-only.
type Sets struct {
	off []int
	ids []int32
}

// SetsOf packs per-vertex sets, each already sorted by L-position, into
// the CSR layout.
func SetsOf(sets [][]int) Sets {
	s := Sets{off: make([]int, len(sets)+1)}
	for w, set := range sets {
		for _, u := range set {
			s.ids = append(s.ids, int32(u))
		}
		s.off[w+1] = len(s.ids)
	}
	return s
}

// Len returns the number of vertices, one set each.
func (s Sets) Len() int { return len(s.off) - 1 }

// Of returns the set of w, sorted by L-position.
func (s Sets) Of(w int) []int32 { return s.ids[s.off[w]:s.off[w+1]:s.off[w+1]] }

// Max returns the size of the largest set: the weak colouring number the
// sets measure, max_w |WReach[G, L, w]|.
func (s Sets) Max() int {
	m := 0
	for w := 1; w < len(s.off); w++ {
		m = max(m, s.off[w]-s.off[w-1])
	}
	return m
}

// Sweep is what one sweep of restricted searches at radius s yields besides
// the sets themselves.
type Sweep struct {
	// Sets.Of(w) is WReach_s[G, L, w] sorted by L-position, exactly as
	// WReachSetsWorkers returns it.
	Sets Sets
	// Homes[w] is min WReach_ρ[G, L, w] for the radius ρ ≤ s the sweep was
	// asked for (nil when it was asked for none).  The distinct homes at
	// ρ = r are the set Algorithm 1 returns (proof of Theorem 5), and the
	// home at ρ = r is the cluster of Theorem 4 that holds N_r[w] (Lemma 6).
	Homes []int
	// Depth is the deepest level any search reached: the largest
	// eccentricity of a vertex u within the subgraph induced by the vertices
	// its search found, X_u = { w : u ∈ WReach_s[G, L, w] }.  With s = 2r
	// that is the radius of the Theorem 4 cover: a shortest path of G[≥_L u]
	// from u to a vertex of X_u has every vertex in X_u.
	Depth int
}

// WReachSweep is WReachSetsWorkers that also returns each vertex's home
// min WReach_rho[G, L, w] and the depth of the sweep, for 0 ≤ rho ≤ s; a
// negative rho asks for no homes.  The searches are the same, so the sets
// are identical, and so are the homes and the depth for every worker count.
func WReachSweep(g *graph.Graph, o *Order, s, rho, workers int) *Sweep {
	sw, _ := wreach(g, o, s, rho, workers, false)
	return &sw
}

// wreachShard is one worker's share of a WReachSets computation: the
// discovered vertices ws, segmented per source (ends[j] is the end offset
// of the block's j'th source, so the source itself is recoverable from the
// segment index — no second per-pair array), and the per-vertex
// contribution counts, later repurposed as write cursors.  par, aligned
// with ws, holds each discovered vertex's BFS parent when witnesses were
// asked for and is nil otherwise.  home[w], when homes at a radius below s
// were asked for, is 1 + the position of the first source of the block
// whose search reached w within that radius (0 if none did); depth is the
// deepest level the block's searches reached.
type wreachShard struct {
	lo    int // first source position of the block
	ws    []int32
	par   []int32
	ends  []int32
	cnt   []int
	home  []int32
	depth int32
}

// WReachSetsWorkers is WReachSets fanned out over the given number of
// workers (0 = GOMAXPROCS).  Sources are sharded by contiguous L-position
// blocks with per-worker BFS scratch; the per-worker pair buffers are merged
// by a deterministic count-and-fill pass, so the output is identical for
// every worker count — no per-set sort is needed because sources are visited
// in L-order (each set's elements arrive already sorted by position).
func WReachSetsWorkers(g *graph.Graph, o *Order, r, workers int) Sets {
	sw, _ := wreach(g, o, r, -1, workers, false)
	return sw.Sets
}

// wreach is the sharded restricted BFS behind WReachSetsWorkers,
// WReachSweep and WReachWitnesses.  The depth, and with rho ≥ 0 the homes
// at radius rho, are read off each search as its scratch is reset: its
// segment of ws is in BFS order, so the last entry is at the search's
// depth and the entries within rho are a prefix.  At rho = s the home is
// the set's first element and needs no table.  With parents set it also
// returns the parent column, aligned with the sets' id array: the entry
// beside the j'th vertex u of w's set is the vertex the search from u
// reached w from (w itself when u = w); otherwise next is nil and the
// search keeps no parents.
func wreach(g *graph.Graph, o *Order, s, rho, workers int, parents bool) (sw Sweep, next []int32) {
	if rho > s {
		panic("order: a sweep's home radius exceeds its search radius")
	}
	n := g.N()
	off := make([]int, n+1)
	sw.Sets.off = off
	if rho >= 0 {
		sw.Homes = make([]int, n)
	}
	if n == 0 {
		return sw, nil
	}
	workers = graph.ResolveWorkers(workers, n)
	if n < graph.MinParallelVertices {
		workers = 1
	}
	pos := o.pos
	perm := o.perm
	s32 := int32(s)
	// table is whether homes need a per-block table; rho32 bounds the
	// prefix of a search it records.
	table := rho >= 0 && rho < s
	rho32 := int32(rho)

	// Position-relabeled CSR (the paper's Algorithm 2, SortLists): the
	// vertex at position i has neighbor positions prows[poff[i]:poff[i+1]].
	// The restriction "only vertices ≥_L u" becomes a plain integer
	// comparison with no indirection, and the restricted BFS touches a
	// contiguous position range.
	poff := make([]int32, n+1)
	for i := 0; i < n; i++ {
		poff[i+1] = poff[i] + int32(g.Degree(perm[i]))
	}
	ptgt := make([]int32, poff[n])
	graph.ParallelBlocks(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := poff[i]
			for _, wn := range g.Neighbors(perm[i]) {
				ptgt[c] = int32(pos[wn])
				c++
			}
		}
	})

	// All vertices below are position labels until the final fill maps them
	// back through perm.
	shards := make([]wreachShard, workers)
	graph.ParallelBlocks(n, workers, func(k, lo, hi int) {
		cnt := make([]int, n)
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		ws := make([]int32, 0, 8*(hi-lo))
		var par []int32
		if parents {
			par = make([]int32, 0, cap(ws))
		}
		var home []int32
		if table {
			home = make([]int32, n)
		}
		depth := int32(0)
		ends := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			// BFS from position i restricted to positions ≥ i, depth ≤ s;
			// the tail of ws doubles as the FIFO queue (every position
			// enters it once).
			head := len(ws)
			ws = append(ws, int32(i))
			if parents {
				par = append(par, int32(i))
			}
			dist[i] = 0
			i32 := int32(i)
			for ; head < len(ws); head++ {
				x := ws[head]
				if dist[x] >= s32 {
					continue
				}
				dx := dist[x] + 1
				for _, y := range ptgt[poff[x]:poff[x+1]] {
					if y < i32 || dist[y] != -1 {
						continue
					}
					dist[y] = dx
					ws = append(ws, y)
					if parents {
						par = append(par, x)
					}
				}
			}
			start := 0
			if len(ends) > 0 {
				start = int(ends[len(ends)-1])
			}
			seg := ws[start:]
			depth = max(depth, dist[seg[len(seg)-1]])
			if table {
				for _, w := range seg {
					if dist[w] > rho32 {
						break
					}
					if home[w] == 0 {
						home[w] = i32 + 1
					}
				}
			}
			for _, w := range seg {
				cnt[w]++
				dist[w] = -1
			}
			ends = append(ends, int32(len(ws)))
		}
		shards[k] = wreachShard{lo: lo, ws: ws, par: par, ends: ends, cnt: cnt, home: home, depth: depth}
	})

	// Count-and-fill merge: compute each (vertex, shard) write cursor, then
	// let every shard copy its pairs (and parents) into the shared id array
	// in parallel, mapping position labels back to vertices.  Shard blocks
	// cover ascending position ranges and each shard emits sources in
	// ascending position, so cursor order reproduces the position-sorted
	// sets exactly, and the first shard with a candidate home holds the
	// least one.
	sum := 0
	for v := 0; v < n; v++ {
		w := pos[v]
		off[v] = sum
		h := int32(0)
		for k := range shards {
			sh := &shards[k]
			if table && h == 0 {
				h = sh.home[w]
			}
			c := sh.cnt[w]
			sh.cnt[w] = sum // repurpose as this shard's write cursor
			sum += c
		}
		if table {
			sw.Homes[v] = perm[h-1]
		}
	}
	off[n] = sum
	for k := range shards {
		sw.Depth = max(sw.Depth, int(shards[k].depth))
	}
	ids := make([]int32, sum)
	var pcol []int32
	if parents {
		pcol = make([]int32, sum)
	}
	graph.ParallelBlocks(workers, workers, func(_, klo, khi int) {
		for k := klo; k < khi; k++ {
			sh := &shards[k]
			cnt := sh.cnt
			start := 0
			for j, e := range sh.ends {
				u := int32(perm[sh.lo+j])
				for q, w := range sh.ws[start:e] {
					ids[cnt[w]] = u
					if parents {
						pcol[cnt[w]] = int32(perm[sh.par[start+q]])
					}
					cnt[w]++
				}
				start = int(e)
			}
		}
	})
	sw.Sets.ids = ids
	if rho == s {
		for v := range sw.Homes {
			sw.Homes[v] = int(ids[off[v]])
		}
	}
	return sw, pcol
}

// WColMeasure returns the measured weak r-colouring number of g under the
// order o, i.e. max_v |WReach_r[G, L, v]|.  By Theorem 1 (Zhu) this is
// bounded by a constant on every bounded expansion class when o is a good
// order.  Callers that already hold the reachability sets should use
// Sets.Max instead of paying for a second WReachSets sweep.
func WColMeasure(g *graph.Graph, o *Order, r int) int {
	return WReachSets(g, o, r).Max()
}

// WReachBruteForce computes WReach_r[G, L, w] for a single vertex w by
// enumerating all paths of length at most r starting at w.  Exponential in
// r·Δ; intended only for cross-validation in tests on small graphs.
func WReachBruteForce(g *graph.Graph, o *Order, r, w int) []int {
	found := map[int]bool{w: true}
	// DFS over paths from w of length ≤ r; a vertex u is weakly reachable if
	// some path reaches it with u strictly smaller than every other path
	// vertex.
	path := []int{w}
	onPath := map[int]bool{w: true}
	var dfs func(cur, depth int)
	record := func() {
		last := path[len(path)-1]
		minV := path[0]
		for _, x := range path {
			if o.Less(x, minV) {
				minV = x
			}
		}
		if minV == last {
			found[last] = true
		}
	}
	dfs = func(cur, depth int) {
		record()
		if depth == r {
			return
		}
		for _, nb := range g.Neighbors(cur) {
			u := int(nb)
			if onPath[u] {
				continue
			}
			onPath[u] = true
			path = append(path, u)
			dfs(u, depth+1)
			path = path[:len(path)-1]
			delete(onPath, u)
		}
	}
	dfs(w, 0)
	out := make([]int, 0, len(found))
	for v := range found {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return o.Less(out[a], out[b]) })
	return out
}
