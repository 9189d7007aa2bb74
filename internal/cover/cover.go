// Package cover constructs and verifies sparse r-neighborhood covers from
// weak-reachability orders, following Theorem 4 of the paper (Grohe,
// Kreutzer, Siebertz): given an order L witnessing wcol_2r(G) ≤ c, the
// collection X = {X_v : v ∈ V(G)} with
//
//	X_v = { w : v ∈ WReach_2r[G, L, w] }
//
// is an r-neighborhood cover of radius at most 2r and degree at most c.
package cover

import (
	"fmt"
	"sort"

	"bedom/internal/graph"
	"bedom/internal/order"
)

// Cover is an r-neighborhood cover of a graph.  Clusters are stored
// slice-indexed by center vertex (a nil row means the vertex centers no
// cluster), which keeps construction a pair of linear passes over the
// weak-reachability sets instead of hash-map churn.
type Cover struct {
	// R is the covering radius parameter: for every vertex v some cluster
	// contains the full closed r-neighborhood N_r[v].
	R int
	// Home[w] is the center of a cluster that contains N_r[w] — following
	// Lemma 6 it is min WReach_r[G, L, w].
	Home []int
	// clusters[v] is the cluster X_v centered at v, sorted increasingly;
	// nil when v centers no cluster.
	clusters [][]int
	// centers lists the cluster centers increasingly.
	centers []int
	// memberships.Of(w) lists the centers of clusters containing w: the
	// WReach_2r set of w is exactly that list.
	memberships order.Sets
}

// Build constructs the cover of Theorem 4 from the order o, with one
// radius-2r sweep that also records the homes at radius r.
func Build(g *graph.Graph, o *order.Order, r int) *Cover {
	sw := order.WReachSweep(g, o, 2*r, r, 0)
	return BuildFromHomes(r, sw.Homes, sw.Sets, 0)
}

// BuildFromSets is BuildFromHomes with the homes read off setsR, the
// weak-reachability sets of g at radius r: the home of w is setsR.Of(w)[0].
func BuildFromSets(g *graph.Graph, r int, setsR, sets2r order.Sets, workers int) *Cover {
	homes := make([]int, g.N())
	for w := range homes {
		homes[w] = int(setsR.Of(w)[0])
	}
	return BuildFromHomes(r, homes, sets2r, workers)
}

// BuildFromHomes constructs the radius-r cover from one sweep
// (order.WReachSweep at s = 2r and rho = r): homes are the Home pointers
// and sets2r, the weak-reachability sets at radius 2r, are inverted into
// the cluster collection.  workers bounds the goroutines of the inversion
// (0 = GOMAXPROCS); the result is identical for every worker count.  The
// cover keeps homes and sets2r — treat both as immutable afterwards.
func BuildFromHomes(r int, homes []int, sets2r order.Sets, workers int) *Cover {
	n := len(homes)
	c := &Cover{
		R:           r,
		Home:        homes,
		clusters:    make([][]int, n),
		memberships: sets2r,
	}

	// Invert sets2r: cluster[v] = { w : v ∈ sets2r[w] }, w ascending.  The
	// count-and-fill pass shards the w-range across workers; shard blocks
	// are ascending and each shard emits w ascending, so cursor order yields
	// sorted clusters without any per-cluster sort.
	workers = graph.ResolveWorkers(workers, n)
	if n < graph.MinParallelVertices {
		workers = 1
	}
	cnts := make([][]int, workers)
	graph.ParallelBlocks(n, workers, func(k, lo, hi int) {
		cnt := make([]int, n)
		for w := lo; w < hi; w++ {
			for _, v := range sets2r.Of(w) {
				cnt[v]++
			}
		}
		cnts[k] = cnt
	})
	off := make([]int, n+1)
	sum := 0
	for v := 0; v < n; v++ {
		off[v] = sum
		for k := range cnts {
			ck := cnts[k][v]
			cnts[k][v] = sum // repurpose as shard k's write cursor for v
			sum += ck
		}
	}
	off[n] = sum
	flat := make([]int, sum)
	graph.ParallelBlocks(n, workers, func(k, lo, hi int) {
		cnt := cnts[k]
		for w := lo; w < hi; w++ {
			for _, v := range sets2r.Of(w) {
				flat[cnt[v]] = w
				cnt[v]++
			}
		}
	})
	centers := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if off[v] < off[v+1] {
			c.clusters[v] = flat[off[v]:off[v+1]:off[v+1]]
			centers = append(centers, v)
		}
	}
	c.centers = centers
	return c
}

// Degree returns the degree of the cover: the maximum number of clusters any
// single vertex belongs to.  Theorem 4 bounds it by wcol_2r(G, L).
func (c *Cover) Degree() int { return c.memberships.Max() }

// AvgDegree returns the average number of clusters a vertex belongs to.
func (c *Cover) AvgDegree() float64 {
	n := c.memberships.Len()
	if n == 0 {
		return 0
	}
	total := 0
	for w := range n {
		total += len(c.memberships.Of(w))
	}
	return float64(total) / float64(n)
}

// Memberships returns the centers of the clusters containing w, sorted by
// L-position of the center.  The slice is owned by the cover.
func (c *Cover) Memberships(w int) []int32 { return c.memberships.Of(w) }

// Cluster returns the cluster centered at v (sorted increasingly), or nil
// when v centers no cluster.  The slice is owned by the cover.
func (c *Cover) Cluster(v int) []int { return c.clusters[v] }

// Centers returns the cluster centers in increasing vertex order.  The
// slice is owned by the cover.
func (c *Cover) Centers() []int { return c.centers }

// NumClusters returns the number of (non-empty) clusters.
func (c *Cover) NumClusters() int { return len(c.centers) }

// ClusterMap materialises the center → cluster mapping as a fresh map whose
// value slices are shared with the cover (callers may add/remove keys but
// must not mutate the slices).
func (c *Cover) ClusterMap() map[int][]int {
	m := make(map[int][]int, len(c.centers))
	for _, v := range c.centers {
		m[v] = c.clusters[v]
	}
	return m
}

// Stats aggregates the quality measures of a cover that the experiments
// report (experiment E2).
type Stats struct {
	R           int
	NumClusters int
	Degree      int
	AvgDegree   float64
	// MaxRadius is the maximum over clusters X of the eccentricity of the
	// cluster center within G[X]; Theorem 4 bounds it by 2r.
	MaxRadius int
	// MaxClusterSize and AvgClusterSize describe cluster cardinalities.
	MaxClusterSize int
	AvgClusterSize float64
}

// ComputeStats measures the cover against g.  The per-cluster radius walks
// are independent, so they fan out across GOMAXPROCS workers (max/sum
// merging is order-independent, keeping the result deterministic).
func (c *Cover) ComputeStats(g *graph.Graph) Stats { return c.ComputeStatsWorkers(g, 0) }

// ComputeStatsWorkers is ComputeStats with an explicit bound on the
// goroutines of the radius walks (0 = GOMAXPROCS).
func (c *Cover) ComputeStatsWorkers(g *graph.Graph, workers int) Stats {
	st := Stats{
		R:           c.R,
		NumClusters: c.NumClusters(),
		Degree:      c.Degree(),
		AvgDegree:   c.AvgDegree(),
	}
	type acc struct {
		total, maxSize, maxRadius int
	}
	workers = graph.ResolveWorkers(workers, len(c.centers))
	accs := make([]acc, workers)
	graph.ParallelBlocks(len(c.centers), workers, func(k, lo, hi int) {
		var a acc
		wk := graph.NewWalker(g)
		for i := lo; i < hi; i++ {
			center := c.centers[i]
			cluster := c.clusters[center]
			a.total += len(cluster)
			if len(cluster) > a.maxSize {
				a.maxSize = len(cluster)
			}
			if rad, _ := clusterRadius(wk, center, cluster); rad > a.maxRadius {
				a.maxRadius = rad
			}
		}
		accs[k] = a
	})
	totalSize := 0
	for _, a := range accs {
		totalSize += a.total
		if a.maxSize > st.MaxClusterSize {
			st.MaxClusterSize = a.maxSize
		}
		if a.maxRadius > st.MaxRadius {
			st.MaxRadius = a.maxRadius
		}
	}
	if st.NumClusters > 0 {
		st.AvgClusterSize = float64(totalSize) / float64(st.NumClusters)
	}
	return st
}

// clusterRadius walks g from center, confined to cluster, and returns the
// depth of the last vertex reached (the eccentricity of center within the
// subgraph induced by cluster, which upper-bounds that subgraph's radius)
// and the number of vertices reached.
func clusterRadius(wk *graph.Walker, center int, cluster []int) (radius, reached int) {
	wk.SetMembers(cluster)
	ball := wk.WalkMembers(center, -1)
	return wk.Depth(int(ball[len(ball)-1])), len(ball)
}

// Verify checks the defining property of an r-neighborhood cover: for every
// vertex w there is a cluster containing the full closed r-neighborhood
// N_r[w].  Following Lemma 6, it checks the cluster of Home[w] and falls back
// to scanning all clusters containing w.  It also re-checks that every
// cluster contains its center and induces a subgraph in which the center
// reaches every cluster member within 2r steps.  Returns nil if the cover is
// valid.
func (c *Cover) Verify(g *graph.Graph) error {
	wk := graph.NewWalker(g)
	for w := 0; w < g.N(); w++ {
		ball := wk.Walk(w, c.R)
		if !c.clusterContains(c.Home[w], ball) {
			ok := false
			for _, center := range c.memberships.Of(w) {
				if c.clusterContains(int(center), ball) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("cover: no cluster contains N_%d[%d]", c.R, w)
			}
		}
	}
	for _, center := range c.centers {
		cluster := c.clusters[center]
		if !c.inCluster(center, center) {
			return fmt.Errorf("cover: cluster of %d does not contain its center", center)
		}
		rad, reached := clusterRadius(wk, center, cluster)
		if reached < len(cluster) {
			return fmt.Errorf("cover: cluster of %d: the center reaches only %d of its %d members inside the cluster", center, reached, len(cluster))
		}
		if rad > 2*c.R {
			return fmt.Errorf("cover: cluster of %d has radius %d > 2r=%d", center, rad, 2*c.R)
		}
	}
	return nil
}

func (c *Cover) clusterContains(center int, ball []int32) bool {
	for _, v := range ball {
		if !c.inCluster(center, int(v)) {
			return false
		}
	}
	return true
}

// inCluster reports whether v belongs to the cluster centered at center.
func (c *Cover) inCluster(center, v int) bool {
	cluster := c.clusters[center]
	i := sort.SearchInts(cluster, v)
	return i < len(cluster) && cluster[i] == v
}
