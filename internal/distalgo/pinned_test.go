package distalgo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"slices"
	"testing"

	"bedom/internal/dist"
	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// The digests below pin the exact outputs of the CONGEST_BC pipelines on
// fixed instances.  TestWReachDistMatchesSequentialSets checks only target
// sets and path validity, so a changed tie-break among equally short
// witness paths would pass it; these digests would not.  They were recorded
// with a node that kept its best paths in a map keyed by target and copied
// every received path before comparing it.

func pinnedGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"apollonian400": gen.Apollonian(400, 1),
		"geometric600":  largestComp(gen.RandomGeometric(600, gen.GeometricRadiusForAvgDeg(600, 6), 1)),
		"grid16x16":     gen.Grid(16, 16),
	}
}

var pinnedWorkers = []int{1, 2, 8}

// digest is the first 8 bytes of the SHA-256 of everything write put in.
func digest(write func(h hash.Hash)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func writeStats(h hash.Hash, st dist.Stats) {
	fmt.Fprintf(h, "|%d,%d,%d,%d", st.Rounds, st.Messages, st.Words, st.MaxMessageWords)
}

func writeInts(h hash.Hash, xs []int) {
	h.Write([]byte{'['})
	for _, x := range xs {
		fmt.Fprintf(h, "%d,", x)
	}
	h.Write([]byte{']'})
}

// writePhases writes the Stats of every run p recorded, then the total.  A
// single run is written as its total alone: the digests were recorded when
// only multi-phase pipelines listed their phases.
func writePhases(h hash.Hash, p *dist.Probe, total dist.Stats) {
	if phases := phaseStats(p); len(phases) > 1 {
		for _, ph := range phases {
			writeStats(h, ph)
		}
	}
	writeStats(h, total)
}

// TestWReachDistPinnedDigests pins every witness of Algorithm 4 (target and
// full path, per vertex, in list order) and the run's Stats for horizons
// 1–5 under the degeneracy order.
func TestWReachDistPinnedDigests(t *testing.T) {
	graphs := pinnedGraphs()
	for _, tc := range []struct {
		graph   string
		horizon int
		digest  string
	}{
		{"apollonian400", 1, "455e631cef7ac99a"},
		{"apollonian400", 2, "6d1c141f0cea46bb"},
		{"apollonian400", 3, "f9787217c4d7036f"},
		{"apollonian400", 4, "db369fb0a33893cc"},
		{"apollonian400", 5, "7158e169b21c7086"},
		{"geometric600", 1, "46b01fd5c3240f8f"},
		{"geometric600", 2, "680b7ddc55fabf4f"},
		{"geometric600", 3, "45f67986df44bd16"},
		{"geometric600", 4, "5ec77425c7cf335b"},
		{"geometric600", 5, "b9531b2ab9dde023"},
		{"grid16x16", 1, "1be6534032ab18d2"},
		{"grid16x16", 2, "f98a8166563517e4"},
		{"grid16x16", 3, "f44dd16698e4bcd4"},
		{"grid16x16", 4, "9d0a5002fa4dc671"},
		{"grid16x16", 5, "54aca6ad71569f69"},
	} {
		g := graphs[tc.graph]
		o, _ := order.FromDegeneracy(g)
		for _, workers := range pinnedWorkers {
			res, err := RunWReachDist(g, o, tc.horizon, dist.CongestBC, dist.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s h=%d workers=%d: %v", tc.graph, tc.horizon, workers, err)
			}
			got := digest(func(h hash.Hash) {
				for v, wits := range res.Witnesses {
					fmt.Fprintf(h, "%d:", v)
					for _, pt := range wits {
						fmt.Fprintf(h, "%d", pt.Target)
						writeInts(h, pt.Path)
					}
					h.Write([]byte{';'})
				}
				writeStats(h, res.Stats)
			})
			if got != tc.digest {
				t.Errorf("%s h=%d workers=%d: witness digest %s, want %s", tc.graph, tc.horizon, workers, got, tc.digest)
			}
		}
	}
}

// TestPipelinePinnedDigests pins the sets and the per-phase Stats of the
// full Theorem 9 (RunDomSet) and Theorem 10 (RunConnectedDomSet) pipelines.
func TestPipelinePinnedDigests(t *testing.T) {
	graphs := pinnedGraphs()
	for _, tc := range []struct {
		graph        string
		r            int
		domset, conn string
	}{
		{"apollonian400", 1, "3e43b8516092d2a4", "48e0dc07eb6f3b41"},
		{"apollonian400", 2, "5eed2328a2993976", "362abe5e89d9b265"},
		{"geometric600", 1, "37124e91b2f59e42", "4709b3b612cd4f2d"},
		{"geometric600", 2, "a7e47e6645a03c1f", "8291be68aa104b68"},
		{"grid16x16", 1, "babfddd760410ae8", "73aaedbf1e6992f1"},
		{"grid16x16", 2, "5295a9ca55903a40", "664b32824115dcdf"},
	} {
		g := graphs[tc.graph]
		for _, workers := range pinnedWorkers {
			probe := &dist.Probe{}
			ds, err := RunDomSet(g, tc.r, dist.CongestBC, dist.Options{Workers: workers, Probe: probe})
			if err != nil {
				t.Fatalf("%s r=%d workers=%d: %v", tc.graph, tc.r, workers, err)
			}
			got := digest(func(h hash.Hash) {
				writeInts(h, ds.Set)
				writePhases(h, probe, ds.Stats)
			})
			if got != tc.domset {
				t.Errorf("%s r=%d workers=%d: RunDomSet digest %s, want %s", tc.graph, tc.r, workers, got, tc.domset)
			}
			probe = &dist.Probe{}
			cds, err := RunConnectedDomSet(g, tc.r, dist.CongestBC, dist.Options{Workers: workers, Probe: probe})
			if err != nil {
				t.Fatalf("%s r=%d workers=%d connected: %v", tc.graph, tc.r, workers, err)
			}
			got = digest(func(h hash.Hash) {
				writeInts(h, cds.DomSet)
				writeInts(h, cds.Set)
				writePhases(h, probe, cds.Stats)
			})
			if got != tc.conn {
				t.Errorf("%s r=%d workers=%d: RunConnectedDomSet digest %s, want %s", tc.graph, tc.r, workers, got, tc.conn)
			}
		}
	}
}

// TestSequentialPinnedDigests pins the sequential references KSVSequential
// (r = 1, 2) and LenzenSequential on three fixed instances.  The digests
// were recorded with map-based balls.
func TestSequentialPinnedDigests(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"apollonian400": gen.Apollonian(400, 1),
		"geometric600":  largestComp(gen.RandomGeometric(600, gen.GeometricRadiusForAvgDeg(600, 6), 1)),
		"grid20x20":     gen.Grid(20, 20),
	}
	for _, tc := range []struct {
		graph string
		// Digests of KSVSequential at r = 1 and 2, then LenzenSequential.
		want [3]string
	}{
		{"apollonian400", [3]string{"81c5eef98ce73846", "14b04481159a66ec", "8541cda819fd406a"}},
		{"geometric600", [3]string{"484fd5eec52147b5", "a96fb3eee368a282", "b507832f23ea9589"}},
		{"grid20x20", [3]string{"cd8e8f1e35599f5e", "9f3b548a7e8ee06e", "c25d6c8d3d2a0c5c"}},
	} {
		g := graphs[tc.graph]
		for i, set := range [][]int{KSVSequential(g, 1), KSVSequential(g, 2), LenzenSequential(g)} {
			if got := digest(func(h hash.Hash) { writeInts(h, set) }); got != tc.want[i] {
				t.Errorf("%s: %s digest %s, want %s (size %d)",
					tc.graph, [...]string{"KSVSequential r=1", "KSVSequential r=2", "LenzenSequential"}[i], got, tc.want[i], len(set))
			}
		}
	}
}

// writeProfiles writes every RunProfile a probe collected, with the
// wall-clock durations zeroed: the per-round counts and the congestion
// table are inside the simulator's determinism contract, the durations are
// not.
func writeProfiles(h hash.Hash, p *dist.Probe) {
	for _, rp := range p.Profiles() {
		rp.DurationNS = 0
		rp.Rounds = slices.Clone(rp.Rounds)
		for i := range rp.Rounds {
			rp.Rounds[i].DurationNS = 0
		}
		b, err := json.Marshal(rp)
		if err != nil {
			panic(err)
		}
		h.Write(b)
	}
}

// TestSimulatorPipelinesPinnedDigests pins the simulator's other pipelines
// — the LOCAL ones and the refined order — with the set, the Stats and
// every probe profile (per-round active and halted counts, congestion
// table).  The digests were recorded with a runner that kept sorted
// per-sender envelope lists beside the broadcasts.
func TestSimulatorPipelinesPinnedDigests(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"apollonian400": gen.Apollonian(400, 1),
		"geometric600":  largestComp(gen.RandomGeometric(600, gen.GeometricRadiusForAvgDeg(600, 6), 1)),
		"grid20x20":     gen.Grid(20, 20),
	}
	// Each pipeline runs on g with opts and returns its set and statistics.
	type pipeline func(g *graph.Graph, opts dist.Options) ([]int, dist.Stats, error)
	localConnect := func(r int) pipeline {
		return func(g *graph.Graph, opts dist.Options) ([]int, dist.Stats, error) {
			D := domset.AlgorithmOne(g, order.ConstructDefault(g, r), r)
			res, err := RunLocalConnector(g, D, r, opts)
			if err != nil {
				return nil, dist.Stats{}, err
			}
			return res.Set, res.Stats, nil
		}
	}
	ksv := func(r int) pipeline {
		return func(g *graph.Graph, opts dist.Options) ([]int, dist.Stats, error) {
			res, err := RunKSV(g, r, dist.Local, opts)
			if err != nil {
				return nil, dist.Stats{}, err
			}
			return res.Set, res.Stats, nil
		}
	}
	pipelines := map[string]pipeline{
		"lenzen": func(g *graph.Graph, opts dist.Options) ([]int, dist.Stats, error) {
			res, err := RunLenzen(g, opts)
			if err != nil {
				return nil, dist.Stats{}, err
			}
			return res.Set, res.Stats, nil
		},
		"local-connect r=1": localConnect(1),
		"local-connect r=2": localConnect(2),
		"ksv-local r=1":     ksv(1),
		"ksv-local r=2":     ksv(2),
		"refined r=1": func(g *graph.Graph, opts dist.Options) ([]int, dist.Stats, error) {
			res, err := RunDomSetRefined(g, 1, dist.CongestBC, opts)
			if err != nil {
				return nil, dist.Stats{}, err
			}
			return res.Set, res.Stats, nil
		},
	}
	for _, tc := range []struct{ graph, pipeline, digest string }{
		{"apollonian400", "lenzen", "6a77385c78f1adee"},
		{"apollonian400", "local-connect r=1", "b2a65be9b299d8c4"},
		{"apollonian400", "local-connect r=2", "9c4f92a96d5787ef"},
		{"apollonian400", "ksv-local r=1", "5fda2e2ce119f1d6"},
		{"apollonian400", "ksv-local r=2", "ffb8d29ec6cdf4bc"},
		{"apollonian400", "refined r=1", "df29700a5115e344"},
		{"geometric600", "lenzen", "a8ea7c7b58256c7c"},
		{"geometric600", "local-connect r=1", "cb10ef19897ccdcf"},
		{"geometric600", "local-connect r=2", "44a28544bb2adf94"},
		{"geometric600", "ksv-local r=1", "904fed58eded81ab"},
		{"geometric600", "ksv-local r=2", "fde8b12cf2c16d0b"},
		{"geometric600", "refined r=1", "4dde4e48b0aa4cf0"},
		{"grid20x20", "lenzen", "ee8a1e9bb07beb6e"},
		{"grid20x20", "local-connect r=1", "e74d4a8f477ef42a"},
		{"grid20x20", "local-connect r=2", "16151946a599c85f"},
		{"grid20x20", "ksv-local r=1", "58e14ac7628a1527"},
		{"grid20x20", "ksv-local r=2", "97ff6cf20f7049ea"},
		{"grid20x20", "refined r=1", "6041940af0d957e7"},
	} {
		g := graphs[tc.graph]
		for _, workers := range pinnedWorkers {
			probe := &dist.Probe{}
			set, st, err := pipelines[tc.pipeline](g, dist.Options{Workers: workers, Probe: probe})
			if err != nil {
				t.Fatalf("%s %s workers=%d: %v", tc.graph, tc.pipeline, workers, err)
			}
			got := digest(func(h hash.Hash) {
				writeInts(h, set)
				writePhases(h, probe, st)
				writeProfiles(h, probe)
			})
			if got != tc.digest {
				t.Errorf("%s %s workers=%d: digest %s, want %s", tc.graph, tc.pipeline, workers, got, tc.digest)
			}
		}
	}
}
