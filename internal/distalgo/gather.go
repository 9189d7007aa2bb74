package distalgo

import (
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

// ballGatherer accumulates knowledge records: after t exchange rounds a node
// knows the records of every vertex within distance t.
type ballGatherer struct {
	know  map[int]VertexInfo
	fresh []VertexInfo
}

func newBallGatherer(self VertexInfo) *ballGatherer {
	return &ballGatherer{
		know:  map[int]VertexInfo{self.ID: self},
		fresh: []VertexInfo{self},
	}
}

// absorb merges incoming records, remembering which ones are new so they can
// be forwarded exactly once.
func (b *ballGatherer) absorb(msg KnowledgeMessage) {
	for _, vi := range msg {
		if _, ok := b.know[vi.ID]; !ok {
			b.know[vi.ID] = vi
			b.fresh = append(b.fresh, vi)
		}
	}
}

// flush returns the records learned since the last flush (to broadcast) and
// clears the fresh list.
func (b *ballGatherer) flush() KnowledgeMessage {
	if len(b.fresh) == 0 {
		return nil
	}
	out := make(KnowledgeMessage, len(b.fresh))
	copy(out, b.fresh)
	b.fresh = nil
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// localView materialises the gathered knowledge as a graph on the known
// vertices.  It returns the local graph, the mapping from local index to
// global id, the inverse mapping, and the flags of the known vertices by
// local index.  Edges are included when at least one endpoint's record lists
// the other (records are symmetric in a correct run, but partial knowledge
// at the ball boundary may be one-sided).
func (b *ballGatherer) localView() (lg *graph.Graph, toGlobal []int, toLocal map[int]int, flags []bool) {
	toGlobal = make([]int, 0, len(b.know))
	for id := range b.know {
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
		rec := b.know[id]
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
