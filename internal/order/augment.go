package order

import (
	"math"
	"slices"

	"bedom/internal/graph"
)

// Digraph is a directed graph with arc lengths, used for the distance-
// truncated transitive–fraternal augmentations of Nešetřil and Ossona de
// Mendez.  An arc v→u with length ℓ certifies that there is a path of length
// ℓ in the original graph from v to u; arcs always point from larger to
// smaller vertices with respect to the orientation's underlying intuition
// ("point toward the vertices you may be weakly reaching").
//
// Arcs are stored as flat per-vertex slices sorted by head vertex, so HasArc
// is a binary search, Out returns the stored slice without allocating, and
// an augmentation round rebuilds each changed row in one linear merge.
type Digraph struct {
	n   int
	out [][]Arc // out[v] = arcs v→·, sorted by To, one arc per head
}

// Arc is a directed arc endpoint with the length of the underlying path.
// int32 fields keep a row at 8 bytes per arc: the augmentation walks are
// bound by how fast they read rows.
type Arc struct {
	To     int32
	Length int32
}

// NewDigraph returns an arcless digraph on n vertices.
func NewDigraph(n int) *Digraph {
	return &Digraph{n: n, out: make([][]Arc, n)}
}

// N returns the number of vertices.
func (d *Digraph) N() int { return d.n }

// arcIndex returns the position of head u in the sorted arc slice arcs, or
// the insertion point if absent.
func arcIndex(arcs []Arc, u int) int {
	lo, hi := 0, len(arcs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(arcs[mid].To) < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AddArc inserts the arc v→u with the given length (which must fit in an
// int32), keeping the minimum length if the arc already exists.  Self-arcs
// are ignored.
func (d *Digraph) AddArc(v, u, length int) {
	if v == u {
		return
	}
	arcs := d.out[v]
	i := arcIndex(arcs, u)
	if i < len(arcs) && int(arcs[i].To) == u {
		arcs[i].Length = min(arcs[i].Length, int32(length))
		return
	}
	d.out[v] = slices.Insert(arcs, i, Arc{To: int32(u), Length: int32(length)})
}

// HasArc reports whether the arc v→u exists.
func (d *Digraph) HasArc(v, u int) bool {
	arcs := d.out[v]
	i := arcIndex(arcs, u)
	return i < len(arcs) && int(arcs[i].To) == u
}

// OutDegree returns the out-degree of v.
func (d *Digraph) OutDegree(v int) int { return len(d.out[v]) }

// MaxOutDegree returns the maximum out-degree.
func (d *Digraph) MaxOutDegree() int {
	max := 0
	for v := 0; v < d.n; v++ {
		if len(d.out[v]) > max {
			max = len(d.out[v])
		}
	}
	return max
}

// Out returns the out-neighbors of v with arc lengths, sorted by vertex id.
// The slice is owned by the digraph and must not be modified; it is valid
// until the next mutation of v's arcs.
func (d *Digraph) Out(v int) []Arc { return d.out[v] }

// inArc locates the arc y→x from its head x: the tail y and the arc's
// index in out[y].
type inArc struct {
	tail, at int32
}

// inArcs returns the arcs into every vertex in CSR layout: the arcs into x
// are arcs[off[x]:off[x+1]], in ascending order of tail.  off counts into
// off[x+1], becomes start offsets by a prefix sum, serves as the scatter
// cursor (ending at the next row's start) and is shifted back one slot.
func (d *Digraph) inArcs() (off []int32, arcs []inArc) {
	n := d.n
	off = make([]int32, n+1)
	for y := 0; y < n; y++ {
		for _, a := range d.out[y] {
			off[a.To+1]++
		}
	}
	for x := 0; x < n; x++ {
		off[x+1] += off[x]
	}
	arcs = make([]inArc, off[n])
	for y := 0; y < n; y++ {
		for i, a := range d.out[y] {
			arcs[off[a.To]] = inArc{int32(y), int32(i)}
			off[a.To]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, arcs
}

// Underlying returns the underlying undirected graph of the digraph (arc
// directions and lengths dropped, antiparallel arcs merged).
func (d *Digraph) Underlying() *graph.Graph { return d.UnderlyingWorkers(0) }

// UnderlyingWorkers is Underlying with the row merges fanned out over the
// given number of workers (0 = GOMAXPROCS).  Row v of the result is the
// union of the heads of out[v] and the tails of the arcs into v, both
// already sorted, so one merge per row writes the CSR directly in the
// layout Finalize would produce: no per-row sort, no per-vertex allocation.
// Each row is merged into a slot sized |out[v]| + |in[v]|, and the rows are
// then packed left over the gaps that antiparallel arcs leave.
func (d *Digraph) UnderlyingWorkers(workers int) *graph.Graph {
	n := d.n
	inOff, in := d.inArcs()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(len(d.out[v])) + inOff[v+1] - inOff[v]
	}
	tgt := make([]int32, off[n])
	size := make([]int32, n)
	graph.ParallelBlocks(n, graph.ResolveWorkers(workers, n), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := unionRow(tgt[off[v]:off[v]:off[v+1]], d.out[v], in[inOff[v]:inOff[v+1]])
			size[v] = int32(len(row))
		}
	})
	packed := int32(0)
	for v := 0; v < n; v++ {
		start := off[v]
		off[v] = packed
		packed += int32(copy(tgt[packed:], tgt[start:start+size[v]]))
	}
	off[n] = packed
	g, err := graph.FromCSRBorrowed(off, tgt[:packed])
	if err != nil {
		panic("order: internal error building the underlying graph: " + err.Error())
	}
	return g
}

// unionRow appends to dst the union of the heads of out and the tails of
// in, both sorted ascending.
func unionRow(dst []int32, out []Arc, in []inArc) []int32 {
	i, j := 0, 0
	for i < len(out) && j < len(in) {
		h, t := out[i].To, in[j].tail
		if h <= t {
			dst = append(dst, h)
			i++
		}
		if t <= h {
			if t < h {
				dst = append(dst, t)
			}
			j++
		}
	}
	for ; i < len(out); i++ {
		dst = append(dst, out[i].To)
	}
	for ; j < len(in); j++ {
		dst = append(dst, in[j].tail)
	}
	return dst
}

// OrientByOrder returns the orientation of g in which every edge points from
// the larger endpoint to the smaller endpoint with respect to o.  With a
// degeneracy-style order the maximum out-degree equals the back-degree of
// the order.
func OrientByOrder(g *graph.Graph, o *Order) *Digraph {
	n := g.N()
	d := &Digraph{n: n, out: make([][]Arc, n)}
	// One arena holds every arc (the orientation keeps exactly one arc per
	// edge); rows are carved out of it per vertex.
	arena := make([]Arc, 0, g.M())
	for v := 0; v < n; v++ {
		start := len(arena)
		for _, w := range g.Neighbors(v) {
			if o.pos[w] < o.pos[v] {
				arena = append(arena, Arc{To: w, Length: 1})
			}
		}
		if start == len(arena) {
			continue
		}
		// Adjacency rows are sorted, so the row is sorted by head.
		d.out[v] = arena[start:len(arena):len(arena)]
	}
	return d
}

// AugmentationResult captures one transitive–fraternal augmentation round.
type AugmentationResult struct {
	// TransitiveArcs is the number of new transitive arcs added.
	TransitiveArcs int
	// FraternalEdges is the number of new fraternal edges added (after
	// orientation they become arcs).
	FraternalEdges int
	// MaxOutDegree is the maximum out-degree after the round.
	MaxOutDegree int
}

// AugmentOnce performs one distance-truncated transitive–fraternal
// augmentation round on d, adding
//
//   - a transitive arc x→z of length ℓ₁+ℓ₂ for every pair of arcs x→y (ℓ₁)
//     and y→z (ℓ₂), and
//   - a fraternal edge {x, z} of length ℓ₁+ℓ₂ for every pair of arcs y→x (ℓ₁)
//     and y→z (ℓ₂) with a common tail y,
//
// whenever the combined length is at most maxLen and the two endpoints were
// not adjacent before the round.  A transitive arc reached through several
// middle vertices gets the minimum length; a fraternal edge gets the length
// through its smallest common tail.  Fraternal edges are oriented by a
// degeneracy ordering of the graph they form, which keeps the out-degree
// growth bounded on bounded expansion classes (Nešetřil–Ossona de Mendez,
// "Grad and classes with bounded expansion II"); where a fraternal arc
// coincides with a new transitive one, the shorter length stays.
func (d *Digraph) AugmentOnce(maxLen int) AugmentationResult {
	return d.AugmentOnceWorkers(maxLen, 0)
}

// AugmentOnceWorkers is AugmentOnce with the per-vertex candidate walks and
// row merges fanned out over the given number of workers (0 = GOMAXPROCS).
// The result is identical for every worker count: each vertex's candidates
// depend only on the digraph before the round, and every shared structure
// is assembled in vertex order.
func (d *Digraph) AugmentOnceWorkers(maxLen, workers int) AugmentationResult {
	return d.augment(1, maxLen, workers)[0]
}

// augment runs up to depth augmentation rounds and returns their results.
// It stops after the first round that adds nothing: the digraph is then
// unchanged, so every later round would be the same no-op.  The per-worker
// tables and buffers are shared by all rounds.
func (d *Digraph) augment(depth, maxLen, workers int) []AugmentationResult {
	// Lengths are int32, so a larger cap is clamped to 2³¹−1 (from an
	// orientation, an arc that long takes more than 30 rounds that each add
	// arcs).
	maxLen = min(maxLen, math.MaxInt32)
	ws := make([]roundWorker, graph.ResolveWorkers(workers, d.n))
	var results []AugmentationResult
	for len(results) < depth {
		res := d.round(maxLen, ws)
		results = append(results, res)
		if res.TransitiveArcs == 0 && res.FraternalEdges == 0 {
			break
		}
	}
	return results
}

// roundWorker is one worker's state across the rounds of an augmentation:
// the stamp tables of its per-vertex walks and the new arcs of its vertex
// block [lo, hi).
//
// A walk draws two fresh stamps: mark[v] == excluded means v may not
// become a head of the walk (it is adjacent to the walking vertex already,
// or is that vertex), and mark[v] == seen means v was found earlier in the
// walk, with its length in length[v]; a smaller mark is left over from an
// earlier walk.  The tables are allocated on first use, by the worker
// itself, and cleared only when the stamp counter wraps.
//
// The new arcs are concatenated in vertex order and segmented by ends: the
// lists of vertex lo+i are trans[transEnds[i]:transEnds[i+1]] and
// frat[fratEnds[i]:fratEnds[i+1]].  They are dead once merged into the
// digraph, so each round refills the same buffers.
type roundWorker struct {
	mark   []int32
	length []int32
	stamp  int32
	heads  []int32 // the current walk's heads, in discovery order
	fr     []Arc   // the current row's oriented fraternal arcs

	lo        int
	trans     []Arc // new transitive arcs x→z of each tail x, sorted by z
	frat      []Arc // new fraternal partners b > a of each a, sorted by b
	transEnds []int32
	fratEnds  []int32
	maxOut    int // the block's largest out-degree after the round
}

// begin starts a walk and returns its two stamps.
func (w *roundWorker) begin(n int) (excluded, seen int32) {
	if w.mark == nil {
		w.mark = make([]int32, n)
		w.length = make([]int32, n)
	}
	if w.stamp > math.MaxInt32-2 {
		clear(w.mark)
		w.stamp = 0
	}
	w.stamp += 2
	w.heads = w.heads[:0]
	return w.stamp - 1, w.stamp
}

// emit appends the walk's heads to dst sorted by vertex id, each with the
// length the walk kept for it.
func (w *roundWorker) emit(dst []Arc) []Arc {
	slices.Sort(w.heads)
	for _, h := range w.heads {
		dst = append(dst, Arc{h, w.length[h]})
	}
	return dst
}

func (w *roundWorker) transOf(x int) []Arc {
	i := x - w.lo
	return w.trans[w.transEnds[i]:w.transEnds[i+1]]
}

func (w *roundWorker) fratOf(a int) []Arc {
	i := a - w.lo
	return w.frat[w.fratEnds[i]:w.fratEnds[i+1]]
}

// round performs one augmentation round with one roundWorker per vertex
// block.  Every candidate is produced once, by the vertex that owns it:
//
//   - the transitive heads of a tail x come from walking x→y→z with
//     out[x] ∪ {x} excluded, keeping the minimum length per head;
//   - the fraternal partners b > a of a vertex a come from walking y ∈ in[a]
//     in ascending order of y and then b ∈ out[y], with out[a] ∪ in[a]
//     excluded, keeping the first length seen per partner — the length
//     through the smallest common tail y.
//
// Both walks read only the digraph as it was before the round, so vertex
// blocks run in parallel.  The fraternal pairs then form a symmetric CSR
// (rows sorted by construction), its degeneracy order orients them, and
// each tail's old row, new transitive heads and oriented fraternal heads
// merge into its new row in one pass.
func (d *Digraph) round(maxLen int, ws []roundWorker) AugmentationResult {
	n := d.n
	if n == 0 {
		return AugmentationResult{}
	}
	inOff, inArcs := d.inArcs()

	graph.ParallelBlocks(n, len(ws), func(k, lo, hi int) {
		w := &ws[k]
		if w.transEnds == nil {
			// First round: room for a few new arcs per vertex.
			w.transEnds = make([]int32, 0, hi-lo+1)
			w.fratEnds = make([]int32, 0, hi-lo+1)
			w.trans = make([]Arc, 0, 4*(hi-lo))
			w.frat = make([]Arc, 0, hi-lo)
		}
		w.lo = lo
		w.trans, w.frat = w.trans[:0], w.frat[:0]
		w.transEnds, w.fratEnds = append(w.transEnds[:0], 0), append(w.fratEnds[:0], 0)
		for x := lo; x < hi; x++ {
			outs := d.out[x]

			// Transitive heads of x.
			excluded, seen := w.begin(n)
			mark, length := w.mark, w.length
			mark[x] = excluded
			for _, a := range outs {
				mark[a.To] = excluded
			}
			for _, a := range outs {
				for _, b := range d.out[a.To] {
					l := int(a.Length) + int(b.Length)
					if l > maxLen {
						continue
					}
					switch z := b.To; mark[z] {
					case excluded:
					case seen:
						length[z] = min(length[z], int32(l))
					default:
						mark[z], length[z] = seen, int32(l)
						w.heads = append(w.heads, z)
					}
				}
			}
			w.trans = w.emit(w.trans)
			w.transEnds = append(w.transEnds, int32(len(w.trans)))

			// Fraternal partners b > x of x: the heads after x in the rows
			// of x's in-neighbors y.  x itself needs no stamp.
			ins := inArcs[inOff[x]:inOff[x+1]]
			excluded, seen = w.begin(n)
			for _, a := range outs {
				mark[a.To] = excluded
			}
			for _, in := range ins {
				mark[in.tail] = excluded
			}
			for _, in := range ins {
				row := d.out[in.tail]
				ly := int(row[in.at].Length)
				for _, b := range row[in.at+1:] {
					if l := ly + int(b.Length); l <= maxLen && mark[b.To] < excluded {
						mark[b.To], length[b.To] = seen, int32(l)
						w.heads = append(w.heads, b.To)
					}
				}
			}
			w.frat = w.emit(w.frat)
			w.fratEnds = append(w.fratEnds, int32(len(w.frat)))
		}
	})

	var res AugmentationResult
	for k := range ws {
		res.TransitiveArcs += len(ws[k].trans)
		res.FraternalEdges += len(ws[k].frat)
	}

	// The fraternal graph as a symmetric CSR with a length column, built
	// like the in-arc lists.  Pairs are scattered in ascending order of
	// their smaller endpoint a, so row v receives its partners below v in
	// ascending order and then its own sorted list: every row comes out
	// sorted with no duplicates, the layout Finalize would produce.
	var fOff, fTgt, fLen []int32
	var fo *Order
	if res.FraternalEdges > 0 {
		fOff = make([]int32, n+1)
		for k := range ws {
			w := &ws[k]
			for a := w.lo; a < w.lo+len(w.fratEnds)-1; a++ {
				for _, b := range w.fratOf(a) {
					fOff[a+1]++
					fOff[b.To+1]++
				}
			}
		}
		for u := 0; u < n; u++ {
			fOff[u+1] += fOff[u]
		}
		fTgt = make([]int32, fOff[n])
		fLen = make([]int32, fOff[n])
		for k := range ws {
			w := &ws[k]
			for a := w.lo; a < w.lo+len(w.fratEnds)-1; a++ {
				for _, b := range w.fratOf(a) {
					i, j := fOff[a], fOff[b.To]
					fTgt[i], fLen[i] = b.To, b.Length
					fTgt[j], fLen[j] = int32(a), b.Length
					fOff[a], fOff[b.To] = i+1, j+1
				}
			}
		}
		copy(fOff[1:], fOff[:n])
		fOff[0] = 0
		fg, err := graph.FromCSRBorrowed(fOff, fTgt)
		if err != nil {
			panic("order: internal error building the fraternal graph: " + err.Error())
		}
		fo, _ = FromDegeneracy(fg)
	}

	// Merge each tail's new arcs into its row: a fraternal edge {u, v}
	// becomes the arc u→v when v precedes u in the fraternal degeneracy
	// order.  Rows touch only their own tail, so blocks run in parallel,
	// each writing its new rows into one arena sized by an upper bound.
	graph.ParallelBlocks(n, len(ws), func(k, lo, hi int) {
		w := &ws[k]
		bound := 0
		for u := lo; u < hi; u++ {
			news := len(w.transOf(u))
			if fOff != nil {
				news += int(fOff[u+1] - fOff[u])
			}
			if news > 0 {
				bound += len(d.out[u]) + news
			}
		}
		var arena []Arc
		if bound > 0 {
			arena = make([]Arc, 0, bound)
		}
		w.maxOut = 0
		for u := lo; u < hi; u++ {
			fr := w.fr[:0]
			if fOff != nil {
				for i := fOff[u]; i < fOff[u+1]; i++ {
					if fo.Less(int(fTgt[i]), u) {
						fr = append(fr, Arc{fTgt[i], fLen[i]})
					}
				}
			}
			w.fr = fr
			if tr := w.transOf(u); len(tr)+len(fr) > 0 {
				start := len(arena)
				arena = appendMerged(arena, d.out[u], tr, fr)
				d.out[u] = arena[start:len(arena):len(arena)]
			}
			w.maxOut = max(w.maxOut, len(d.out[u]))
		}
	})
	for k := range ws {
		res.MaxOutDegree = max(res.MaxOutDegree, ws[k].maxOut)
	}
	return res
}

// appendMerged appends to dst the union of old, tr and fr, each sorted by
// head.  old shares no head with the others; a head in both tr and fr keeps
// the shorter length.
func appendMerged(dst, old, tr, fr []Arc) []Arc {
	for len(tr) > 0 || len(fr) > 0 {
		var c Arc
		switch {
		case len(fr) == 0 || (len(tr) > 0 && tr[0].To < fr[0].To):
			c, tr = tr[0], tr[1:]
		case len(tr) == 0 || fr[0].To < tr[0].To:
			c, fr = fr[0], fr[1:]
		default:
			c = Arc{tr[0].To, min(tr[0].Length, fr[0].Length)}
			tr, fr = tr[1:], fr[1:]
		}
		for len(old) > 0 && old[0].To < c.To {
			dst = append(dst, old[0])
			old = old[1:]
		}
		dst = append(dst, c)
	}
	return append(dst, old...)
}

// TFAugmentation orients g by its degeneracy order and runs up to depth
// augmentation rounds with the given length cap, stopping after the first
// round that adds nothing.  It returns the augmented digraph together with
// the results of the rounds it ran.
func TFAugmentation(g *graph.Graph, depth, maxLen int) (*Digraph, []AugmentationResult) {
	base, _ := FromDegeneracy(g)
	d := OrientByOrder(g, base)
	return d, d.augment(depth, maxLen, 0)
}
