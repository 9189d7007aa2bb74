package distalgo

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bedom/internal/dist"
	"bedom/internal/gen"
	"bedom/internal/graph"
)

// TestPipelineDeterministicAcrossWorkers runs the full Theorem 9 and
// Theorem 10 pipelines under different simulator worker counts and demands
// bit-identical results: the same elected sets, the same per-phase and total
// round counts, and the same congestion statistics.  This is the acceptance
// check that the parallel fan-out of the simulator does not leak scheduling
// into the algorithms.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	g := gen.Grid(10, 10)

	refProbe := &dist.Probe{}
	ref, err := RunDomSet(g, 1, dist.CongestBC, dist.Options{Workers: 1, Probe: refProbe})
	if err != nil {
		t.Fatal(err)
	}
	refConn, err := RunConnectedDomSet(g, 1, dist.CongestBC, dist.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refPhases := phaseStats(refProbe)
	for _, workers := range []int{4, 8} {
		probe := &dist.Probe{}
		res, err := RunDomSet(g, 1, dist.CongestBC, dist.Options{Workers: workers, Probe: probe})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameInts(res.Set, ref.Set) {
			t.Fatalf("workers=%d: dominating set diverges: %d vs %d vertices",
				workers, len(res.Set), len(ref.Set))
		}
		if res.Stats.Rounds != ref.Stats.Rounds ||
			res.Stats.Messages != ref.Stats.Messages ||
			res.Stats.Words != ref.Stats.Words ||
			res.Stats.MaxMessageWords != ref.Stats.MaxMessageWords {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v",
				workers, res.Stats, ref.Stats)
		}
		if phases := phaseStats(probe); !slices.Equal(phases, refPhases) {
			t.Fatalf("workers=%d: phase stats diverge: %+v vs %+v", workers, phases, refPhases)
		}

		conn, err := RunConnectedDomSet(g, 1, dist.CongestBC, dist.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d connected: %v", workers, err)
		}
		if !sameInts(conn.Set, refConn.Set) || !sameInts(conn.DomSet, refConn.DomSet) {
			t.Fatalf("workers=%d: connected pipeline diverges", workers)
		}
		if conn.Stats.Rounds != refConn.Stats.Rounds {
			t.Fatalf("workers=%d: connected rounds diverge: %d vs %d",
				workers, conn.Stats.Rounds, refConn.Stats.Rounds)
		}
	}
}

// TestLocalEqualsCongestBC pins the fact that lets the simulator keep only
// two models: both send one message per vertex per round and differ only
// in its size limit, so at Bandwidth 0 a LOCAL run and a CONGEST_BC run
// give the same sets and the same Stats, phase by phase.
func TestLocalEqualsCongestBC(t *testing.T) {
	for name, g := range pinnedGraphs() {
		for _, r := range []int{1, 2} {
			var sets [2][3][]int
			// stats[i][k] holds pipeline k's phase Stats, then its total.
			var stats [2][3][]dist.Stats
			for i, model := range []dist.Model{dist.Local, dist.CongestBC} {
				var probes [3]dist.Probe
				ds, err := RunDomSet(g, r, model, dist.Options{Probe: &probes[0]})
				if err != nil {
					t.Fatalf("%s r=%d %v: %v", name, r, model, err)
				}
				cds, err := RunConnectedDomSet(g, r, model, dist.Options{Probe: &probes[1]})
				if err != nil {
					t.Fatalf("%s r=%d %v connected: %v", name, r, model, err)
				}
				ksv, err := RunKSV(g, r, model, dist.Options{Probe: &probes[2]})
				if err != nil {
					t.Fatalf("%s r=%d %v kubsv: %v", name, r, model, err)
				}
				sets[i] = [3][]int{ds.Set, cds.Set, ksv.Set}
				for k, total := range []dist.Stats{ds.Stats, cds.Stats, ksv.Stats} {
					stats[i][k] = append(phaseStats(&probes[k]), total)
				}
			}
			for k, pipeline := range []string{"RunDomSet", "RunConnectedDomSet", "RunKSV"} {
				if !sameInts(sets[0][k], sets[1][k]) {
					t.Errorf("%s r=%d %s: LOCAL set (%d) differs from CONGEST_BC set (%d)",
						name, r, pipeline, len(sets[0][k]), len(sets[1][k]))
				}
				if !reflect.DeepEqual(stats[0][k], stats[1][k]) {
					t.Errorf("%s r=%d %s: LOCAL stats %+v differ from CONGEST_BC stats %+v",
						name, r, pipeline, stats[0][k], stats[1][k])
				}
			}
		}
	}
}

// TestBandwidthIsTheLargestMessage: the bandwidth applies to a vertex's
// whole message of a round, however many Broadcast calls built it, so a
// CONGEST_BC pipeline fits in exactly its own MaxMessageWords.  At that
// bandwidth each pipeline below gives the unlimited run's answer and
// Stats; one word less aborts it with ErrMessageTooLarge in the first
// phase that sent a message of that size.
func TestBandwidthIsTheLargestMessage(t *testing.T) {
	type pipelineRun func(g *graph.Graph, opts dist.Options) (any, dist.Stats, error)
	domSet := func(r int) pipelineRun {
		return func(g *graph.Graph, opts dist.Options) (any, dist.Stats, error) {
			res, err := RunDomSet(g, r, dist.CongestBC, opts)
			if err != nil {
				return nil, dist.Stats{}, err
			}
			return res.Set, res.Stats, nil
		}
	}
	wreach := func(h int) pipelineRun {
		return func(g *graph.Graph, opts dist.Options) (any, dist.Stats, error) {
			res, err := RunWReachDist(g, degeneracyOrder(g), h, dist.CongestBC, opts)
			if err != nil {
				return nil, dist.Stats{}, err
			}
			return res.Witnesses, res.Stats, nil
		}
	}
	pipelines := []struct {
		name string
		run  pipelineRun
	}{
		{"RunDomSet r=1", domSet(1)},
		{"RunDomSet r=2", domSet(2)},
		{"RunConnectedDomSet r=1", func(g *graph.Graph, opts dist.Options) (any, dist.Stats, error) {
			res, err := RunConnectedDomSet(g, 1, dist.CongestBC, opts)
			if err != nil {
				return nil, dist.Stats{}, err
			}
			return [2][]int{res.DomSet, res.Set}, res.Stats, nil
		}},
		{"RunWReachDist h=2", wreach(2)},
		{"RunWReachDist h=3", wreach(3)},
		{"RunWReachDist h=4", wreach(4)},
	}
	for name, g := range pinnedGraphs() {
		for _, pc := range pipelines {
			probe := &dist.Probe{}
			want, wantStats, err := pc.run(g, dist.Options{Probe: probe})
			if err != nil {
				t.Fatalf("%s %s: %v", name, pc.name, err)
			}
			limit := wantStats.MaxMessageWords
			phase := ""
			for _, rp := range probe.Profiles() {
				if rp.Stats.MaxMessageWords == limit {
					phase = rp.Phase
					break
				}
			}
			got, stats, err := pc.run(g, dist.Options{Bandwidth: limit})
			if err != nil || !reflect.DeepEqual(got, want) || stats != wantStats {
				t.Fatalf("%s %s: at bandwidth %d: %+v, %v; unlimited: %+v", name, pc.name, limit, stats, err, wantStats)
			}
			_, _, err = pc.run(g, dist.Options{Bandwidth: limit - 1})
			if !errors.Is(err, dist.ErrMessageTooLarge) || !strings.Contains(err.Error(), "distalgo: "+phase+" failed") {
				t.Fatalf("%s %s: at bandwidth %d: %v; want ErrMessageTooLarge in phase %q", name, pc.name, limit-1, err, phase)
			}
		}
	}
}
