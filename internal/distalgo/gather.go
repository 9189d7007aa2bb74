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
type VertexInfo struct {
	ID   int
	Flag bool
	Adj  []int
}

func (vi VertexInfo) vertex() int { return vi.ID }

// neighborIDs returns a fresh []int copy of the node's neighbor row.
func neighborIDs(ctx *dist.Context) []int {
	row := ctx.Neighbors()
	ids := make([]int, len(row))
	for i, u := range row {
		ids[i] = int(u)
	}
	return ids
}

// KnowledgeMessage carries a batch of knowledge records; it is only used in
// the LOCAL model, where message size is unbounded, but its Words method
// still reports the true size for the statistics.
type KnowledgeMessage []VertexInfo

// Words implements dist.Message.
func (m KnowledgeMessage) Words() int {
	w := 0
	for _, vi := range m {
		w += 2 + len(vi.Adj)
	}
	return w
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

func (f *flood[T]) absorb(recs []T) {
	for _, rec := range recs {
		f.add(rec)
	}
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
			if j, ok := toLocal[nb]; ok && i != j {
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
