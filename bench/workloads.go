package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// workload is one seeded closed-loop traffic mix against domserved.  Every
// loop is closed: a client sends its next request only after the previous
// reply, because domserved's callers wait for their answers.
type workload struct {
	name string
	// clients is the number of concurrent closed-loop clients (each holds
	// one keep-alive connection); at most nproc on the reference box.
	clients int
	// durable starts the daemon with a data directory.
	durable bool
	// warm ends set-up with one pass over every query key, so the timed
	// window sees only cache hits.
	warm   bool
	inputs func(seed int64, smoke bool) *inputs
	loop   func(l *loop) error
}

func workloads() []*workload {
	return []*workload{
		{name: "serve", clients: 2, warm: true, inputs: serveInputs, loop: serveLoop},
		{name: "churn", clients: 1, inputs: churnInputs, loop: churnLoop},
		{name: "dist", clients: 1, inputs: distInputs, loop: distLoop},
		{name: "durable", clients: 1, durable: true, inputs: durableInputs, loop: durableLoop},
	}
}

func workloadNames() []string {
	var names []string
	for _, wl := range workloads() {
		names = append(names, wl.name)
	}
	return names
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames())
}

// query is one domserved query, as sent in the POST /query body.
type query struct {
	Graph    string `json:"graph"`
	Kind     string `json:"kind"`
	R        int    `json:"r"`
	Solver   string `json:"solver,omitempty"`
	OmitSets bool   `json:"omit_sets,omitempty"`
}

func (q query) String() string {
	s := fmt.Sprintf("%s %s r=%d", q.Graph, q.Kind, q.R)
	if q.Solver != "" {
		s += " solver=" + q.Solver
	}
	if q.OmitSets {
		s += " omit_sets"
	}
	return s
}

// namedGraph is one generated input graph and its NDJSON upload body.
type namedGraph struct {
	name   string
	g      *graph.Graph
	ndjson []byte
}

// inputs is everything a workload run sends, generated from the seed.
type inputs struct {
	seed    int64
	graphs  []namedGraph
	queries []query
	// sweep is the graph the traced run's layer sweep measures: the largest
	// component of the workload's smallest graph.
	sweep *graph.Graph
}

func (in *inputs) graph(name string) *graph.Graph {
	for _, ng := range in.graphs {
		if ng.name == name {
			return ng.g
		}
	}
	panic("bench: no input graph " + name) // workload definitions name only their own graphs
}

func (in *inputs) infos() []graphInfo {
	out := make([]graphInfo, len(in.graphs))
	for i, ng := range in.graphs {
		out[i] = graphInfo{Name: ng.name, N: ng.g.N(), M: ng.g.M()}
	}
	return out
}

func newInputs(seed int64, graphs ...namedGraph) *inputs {
	in := &inputs{seed: seed, graphs: graphs}
	smallest := graphs[0].g
	for i := range in.graphs {
		ng := &in.graphs[i]
		ng.ndjson = ndjson(ng.name, ng.g)
		if ng.g.N() < smallest.N() {
			smallest = ng.g
		}
	}
	in.sweep, _ = gen.LargestComponent(smallest)
	return in
}

// ndjson renders g as a domserved streaming-ingest body: a header object,
// then one [u,v] line per edge.
func ndjson(name string, g *graph.Graph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"name\":%q,\"n\":%d}\n", name, g.N())
	var line []byte
	for _, e := range g.Edges() {
		line = append(line[:0], '[')
		line = strconv.AppendInt(line, int64(e[0]), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(e[1]), 10)
		line = append(line, "]\n"...)
		b.Write(line)
	}
	return b.Bytes()
}

// size picks the full or the smoke-test vertex count.
func size(full, smoke int, isSmoke bool) int {
	if isSmoke {
		return smoke
	}
	return full
}

// geometric is the repository's "geometric" family: a unit-disk graph with
// average degree about 6.
func geometric(n int, seed int64) *graph.Graph {
	return gen.RandomGeometric(n, gen.GeometricRadiusForAvgDeg(n, 6), seed)
}

func serveInputs(seed int64, smoke bool) *inputs {
	in := newInputs(seed,
		namedGraph{name: "geo", g: geometric(size(100_000, 2_000, smoke), seed)},
		namedGraph{name: "apo", g: gen.Apollonian(size(20_000, 1_000, smoke), seed)})
	for _, g := range []string{"geo", "apo"} {
		for r := 1; r <= 2; r++ {
			in.queries = append(in.queries,
				query{Graph: g, Kind: "domset", R: r},
				query{Graph: g, Kind: "domset", R: r, OmitSets: true},
				query{Graph: g, Kind: "cover", R: r})
		}
		in.queries = append(in.queries,
			query{Graph: g, Kind: "domset", R: 2, Solver: "dvorak"},
			query{Graph: g, Kind: "domset", R: 2, Solver: "order-greedy"})
	}
	return in
}

// connectedGeometric is the largest component of a geometric graph, for the
// kinds that need a connected graph.
func connectedGeometric(n int, seed int64) *graph.Graph {
	g, _ := gen.LargestComponent(geometric(n, seed))
	return g
}

// churnInputs asks cds on a geometric graph, not an Apollonian one: an
// Apollonian graph's hubs vary in size from seed to seed, and so did its
// cold cds cost, by a sixth either way at n=10k.  That key was churn's
// slowest, so it alone set query_p90_ms.
func churnInputs(seed int64, smoke bool) *inputs {
	in := newInputs(seed,
		namedGraph{name: "geo20k", g: geometric(size(20_000, 1_000, smoke), seed)},
		namedGraph{name: "geo5k", g: connectedGeometric(size(5_000, 500, smoke), seed)})
	in.queries = []query{
		{Graph: "geo20k", Kind: "domset", R: 1},
		{Graph: "geo20k", Kind: "domset", R: 2},
		{Graph: "geo20k", Kind: "cover", R: 1},
		{Graph: "geo20k", Kind: "domset", R: 2, Solver: "dvorak"},
		{Graph: "geo5k", Kind: "cds", R: 1},
	}
	return in
}

func distInputs(seed int64, smoke bool) *inputs {
	in := newInputs(seed,
		namedGraph{name: "apo5k", g: gen.Apollonian(size(5_000, 500, smoke), seed)},
		namedGraph{name: "geo5k", g: connectedGeometric(size(5_000, 500, smoke), seed)})
	for _, g := range []string{"apo5k", "geo5k"} {
		in.queries = append(in.queries,
			query{Graph: g, Kind: "dist-domset", R: 1},
			query{Graph: g, Kind: "dist-domset", R: 2},
			query{Graph: g, Kind: "dist-cds", R: 1})
	}
	// A seventh key makes the count odd.  The keys' latencies form separate
	// clusters and the round-robin asks each equally often, so with an even
	// count the median falls on the edge between two clusters and moves
	// with every small shift in either.  With seven it falls inside the
	// fourth key's cluster.
	in.queries = append(in.queries, query{Graph: "apo5k", Kind: "dist-cds", R: 2})
	return in
}

func durableInputs(seed int64, smoke bool) *inputs {
	// The grid is above the store's raw-snapshot threshold (about 1M CSR
	// entries), so it is written raw and reopened through mmap; the
	// geometric graph is below it and takes the varint path.
	side := size(500, 40, smoke)
	in := newInputs(seed,
		namedGraph{name: "grid", g: gen.Grid(side, side)},
		namedGraph{name: "geo", g: geometric(size(50_000, 1_000, smoke), seed)})
	in.queries = []query{{Graph: "geo", Kind: "domset", R: 1}}
	return in
}

// mutator generates one graph's seeded mutation stream.  Each delta adds a
// fresh non-edge and, once lag edges are live, removes the edge added lag
// deltas earlier, so n and m stay level while the topology keeps moving.
// Added edges join vertices at distance two, as a new local link would:
// the graph stays in its sparse class, and query cost does not hinge on
// which random long-range shortcut a seed happened to add.
type mutator struct {
	base    *graph.Graph
	rng     *rand.Rand
	lag     int
	live    [][2]int
	present map[[2]int]bool
}

func newMutator(base *graph.Graph, seed int64, lag int) *mutator {
	return &mutator{base: base, rng: rand.New(rand.NewSource(seed)), lag: lag, present: make(map[[2]int]bool)}
}

func (m *mutator) next() graph.Delta {
	g := m.base
	var e [2]int
	for {
		u := m.rng.Intn(g.N())
		nu := g.Neighbors(u)
		if len(nu) == 0 {
			continue
		}
		nw := g.Neighbors(int(nu[m.rng.Intn(len(nu))]))
		v := int(nw[m.rng.Intn(len(nw))])
		e = [2]int{min(u, v), max(u, v)}
		if u != v && !g.HasEdge(u, v) && !m.present[e] {
			break
		}
	}
	d := graph.Delta{Add: [][2]int{e}}
	m.live = append(m.live, e)
	m.present[e] = true
	if len(m.live) > m.lag {
		old := m.live[0]
		m.live = m.live[1:]
		delete(m.present, old)
		d.Remove = [][2]int{old}
	}
	return d
}

// liveEdges returns a copy of the edges the stream has added and not yet
// removed: the graph is the input graph plus these.
func (m *mutator) liveEdges() [][2]int { return slices.Clone(m.live) }

// loop is one run of a workload's closed loop against a target, until
// deadline.
type loop struct {
	t        target
	in       *inputs
	deadline time.Time
	recs     []*recorder // one per client
}

// serveLoop: two clients draw from one seeded sequence of shuffled passes
// over every key.  Every substrate is already cached.
func serveLoop(l *loop) error {
	rng := rand.New(rand.NewSource(l.in.seed))
	var seq []int
	for pass := 0; pass < 64; pass++ {
		seq = append(seq, rng.Perm(len(l.in.queries))...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c, rec := range l.recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(l.deadline) {
				k := seq[int(next.Add(1)-1)%len(seq)]
				if body, ok := rec.query(l.t, c, k, l.in.queries[k], time.Now()); ok {
					rec.repeatable(k, body)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// churnLoop: every query follows a mutation of its graph, so it misses the
// substrate cache.
func churnLoop(l *loop) error {
	rec := l.recs[0]
	muts := make(map[string]*mutator)
	for i, ng := range l.in.graphs {
		muts[ng.name] = newMutator(ng.g, l.in.seed*31+int64(i), 1)
	}
	for i := 0; time.Now().Before(l.deadline); i++ {
		k := i % len(l.in.queries)
		q := l.in.queries[k]
		if !rec.mutate(l.t, q.Graph, muts[q.Graph].next()) {
			continue
		}
		if body, ok := rec.query(l.t, 0, k, q, time.Now()); ok {
			rec.keep(k, muts[q.Graph].liveEdges(), body, -1, -1)
		}
	}
	return nil
}

// distLoop: round-robin over the distributed keys, which are never cached.
func distLoop(l *loop) error {
	rec := l.recs[0]
	for i := 0; time.Now().Before(l.deadline); i++ {
		k := i % len(l.in.queries)
		if body, ok := rec.query(l.t, 0, k, l.in.queries[k], time.Now()); ok {
			rec.repeatable(k, body)
		}
	}
	return nil
}

// durableMutations is the number of mutations before and after each
// checkpoint in a durable cycle.
const durableMutations = 100

// durableLoop: each cycle mutates, checkpoints, mutates a WAL tail, crashes
// the daemon with SIGKILL, relaunches it and asks the first query.  The
// query's latency is counted from the relaunch: it is the wait of a client
// whose query arrived at the crash.
func durableLoop(l *loop) error {
	rec := l.recs[0]
	const k = 0
	q := l.in.queries[k]
	mut := newMutator(l.in.graph(q.Graph), l.in.seed*31, 50)
	for time.Now().Before(l.deadline) {
		for half := 0; half < 2; half++ {
			for j := 0; j < durableMutations; j++ {
				rec.mutate(l.t, q.Graph, mut.next())
			}
			if half == 0 {
				rec.checkpoint(l.t)
			}
		}
		if err := l.t.crash(); err != nil {
			return err
		}
		start := time.Now()
		if err := l.t.relaunch(); err != nil {
			return err
		}
		rec.timed(&rec.readyMS, start)
		body, ok := rec.query(l.t, 0, k, q, start)
		n, m, err := l.t.info(q.Graph)
		if err != nil {
			rec.fail("graph info after restart: %v", err)
			continue
		}
		if ok {
			rec.keep(k, mut.liveEdges(), body, n, m)
		}
	}
	return nil
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
