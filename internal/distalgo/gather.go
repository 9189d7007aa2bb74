package distalgo

import (
	"cmp"
	"slices"
	"sort"

	"bedom/internal/dist"
	"bedom/internal/graph"
)

// VertexInfo is the knowledge record a node shares about itself during
// LOCAL-model neighborhood gathering: its id, a boolean payload (dominator /
// set-membership flag, depending on the algorithm) and its adjacency list.
// On the wire it is the 2 + deg words [id, flag | deg<<1, adj…].
type VertexInfo struct {
	ID   int
	Flag bool
	Adj  []int32
}

func (vi VertexInfo) vertex() int { return vi.ID }

// knowledge gathers VertexInfo records by flooding them (see flood) and
// holds their wire format.  The words of a message are only valid during
// the Round call that received them, so the adjacency of a record learned
// from one is copied into adj, an arena of the node's own.
type knowledge struct {
	flood[VertexInfo]
	adj []int32
}

// addSelf adds the record of the node ctx belongs to.  Its adjacency is the
// node's CSR row, which outlives the run.
func (k *knowledge) addSelf(id int, flag bool, ctx *dist.Context) {
	k.add(VertexInfo{ID: id, Flag: flag, Adj: ctx.Neighbors()})
}

// send broadcasts the records learned since the last send, in increasing
// vertex order (nothing when there are none).
func (k *knowledge) send(ctx *dist.Context) {
	for _, vi := range k.flush() {
		fd := int32(len(vi.Adj)) << 1
		if vi.Flag {
			fd |= 1
		}
		ctx.Broadcast([]int32{int32(vi.ID), fd})
		ctx.Broadcast(vi.Adj)
	}
}

// absorb adds the records of a message that are new to k.
func (k *knowledge) absorb(words []int32) {
	for len(words) >= 2 {
		id, deg := int(words[0]), int(words[1]>>1)
		if _, ok := k.known[id]; !ok {
			start := len(k.adj)
			k.adj = append(k.adj, words[2:2+deg]...)
			k.add(VertexInfo{ID: id, Flag: words[1]&1 == 1, Adj: k.adj[start:len(k.adj):len(k.adj)]})
		}
		words = words[2+deg:]
	}
}

// flood is a forward-once accumulator of records keyed by vertex id: the
// first record of each vertex is kept and broadcast exactly once, by the
// next flush.  Flooding for t rounds brings every record to the vertices
// within distance t of where it started; gathering VertexInfo records this
// way teaches a node its t-ball.
type flood[T interface{ vertex() int }] struct {
	known map[int]T
	fresh []T
}

func (f *flood[T]) add(rec T) {
	if _, ok := f.known[rec.vertex()]; ok {
		return
	}
	if f.known == nil {
		f.known = make(map[int]T)
	}
	f.known[rec.vertex()] = rec
	f.fresh = append(f.fresh, rec)
}

// flush returns the records added since the last flush, in increasing
// vertex order (nil if there are none), and forgets them.
func (f *flood[T]) flush() []T {
	out := f.fresh
	f.fresh = nil
	slices.SortFunc(out, func(a, b T) int { return cmp.Compare(a.vertex(), b.vertex()) })
	return out
}

// localView materialises the gathered records know as a graph on the known
// vertices.  It returns the local graph, the mapping from local index to
// global id, the inverse mapping, and the flags of the known vertices by
// local index.  Edges are included when at least one endpoint's record lists
// the other (records are symmetric in a correct run, but partial knowledge
// at the ball boundary may be one-sided).
func localView(know map[int]VertexInfo) (lg *graph.Graph, toGlobal []int, toLocal map[int]int, flags []bool) {
	toGlobal = make([]int, 0, len(know))
	for id := range know {
		toGlobal = append(toGlobal, id)
	}
	sort.Ints(toGlobal)
	toLocal = make(map[int]int, len(toGlobal))
	for i, id := range toGlobal {
		toLocal[id] = i
	}
	lg = graph.New(len(toGlobal))
	flags = make([]bool, len(toGlobal))
	for i, id := range toGlobal {
		rec := know[id]
		flags[i] = rec.Flag
		for _, nb := range rec.Adj {
			if j, ok := toLocal[int(nb)]; ok && i != j {
				// Error impossible: indices are in range and distinct.  An
				// edge that both records list is added once: AddEdge drops
				// the repeat.
				_ = lg.AddEdge(i, j)
			}
		}
	}
	lg.Finalize()
	return lg, toGlobal, toLocal, flags
}
