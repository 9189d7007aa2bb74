package cover

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// TestCoverPinnedDigests pins the cover Build returns for the order
// ConstructDefault builds, on three fixed instances at r = 1 and 2: every
// cluster with its center, the Home pointers, and ComputeStatsWorkers at
// Workers 1, 2 and 8.  The digests and statistics were recorded with a
// radius taken on one induced subgraph per cluster.
func TestCoverPinnedDigests(t *testing.T) {
	geo, _ := gen.LargestComponent(gen.RandomGeometric(600, gen.GeometricRadiusForAvgDeg(600, 6), 1))
	graphs := map[string]*graph.Graph{
		"apollonian400": gen.Apollonian(400, 1),
		"geometric600":  geo,
		"grid20x20":     gen.Grid(20, 20),
	}
	for _, tc := range []struct {
		graph  string
		r      int
		digest string
		stats  string
	}{
		{"apollonian400", 1, "aa73ae5b71fb4441", "{R:1 NumClusters:400 Degree:12 AvgDegree:7.83 MaxRadius:2 MaxClusterSize:286 AvgClusterSize:7.83}"},
		{"apollonian400", 2, "ee3c0dca94d697d0", "{R:2 NumClusters:400 Degree:22 AvgDegree:12.3725 MaxRadius:4 MaxClusterSize:399 AvgClusterSize:12.3725}"},
		{"geometric600", 1, "c4076d3a261f15c1", "{R:1 NumClusters:565 Degree:14 AvgDegree:6.95575221238938 MaxRadius:2 MaxClusterSize:28 AvgClusterSize:6.95575221238938}"},
		{"geometric600", 2, "ef19c6034c92403a", "{R:2 NumClusters:565 Degree:28 AvgDegree:13.91504424778761 MaxRadius:4 MaxClusterSize:56 AvgClusterSize:13.91504424778761}"},
		{"grid20x20", 1, "d8607a6e8d4cbd85", "{R:1 NumClusters:400 Degree:7 AvgDegree:6.35 MaxRadius:2 MaxClusterSize:13 AvgClusterSize:6.35}"},
		{"grid20x20", 2, "1c712871c5a36c6b", "{R:2 NumClusters:400 Degree:29 AvgDegree:17.31 MaxRadius:4 MaxClusterSize:41 AvgClusterSize:17.31}"},
	} {
		g := graphs[tc.graph]
		c := Build(g, order.ConstructDefault(g, tc.r), tc.r)
		h := sha256.New()
		for _, v := range c.Centers() {
			fmt.Fprintf(h, "%d:", v)
			for _, w := range c.Cluster(v) {
				fmt.Fprintf(h, "%d,", w)
			}
			h.Write([]byte{'|'})
		}
		for _, v := range c.Home {
			fmt.Fprintf(h, "%d,", v)
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != tc.digest {
			t.Errorf("%s r=%d: cover digest %s, want %s", tc.graph, tc.r, got, tc.digest)
		}
		for _, workers := range []int{1, 2, 8} {
			if got := fmt.Sprintf("%+v", c.ComputeStatsWorkers(g, workers)); got != tc.stats {
				t.Errorf("%s r=%d workers=%d: stats %s, want %s", tc.graph, tc.r, workers, got, tc.stats)
			}
		}
	}
}
