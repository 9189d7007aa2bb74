package distalgo

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"bedom/internal/dist"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// driverCase runs one exported driver on g at radius r (the horizon is 2r
// for the drivers that take one) and returns the Stats of its result.
type driverCase struct {
	name string
	// phases lists the simulator runs the driver makes, in order.
	phases []string
	// radius reports whether the driver takes a radius or horizon.
	radius bool
	run    func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error)
}

// resultStats returns the Stats field of a driver's result.
func resultStats[R any](res *R, err error) (dist.Stats, error) {
	if err != nil {
		return dist.Stats{}, err
	}
	return reflect.ValueOf(res).Elem().FieldByName("Stats").Interface().(dist.Stats), nil
}

func degeneracyOrder(g *graph.Graph) *order.Order {
	o, _ := order.FromDegeneracy(g)
	return o
}

func driverCases() []driverCase {
	return []driverCase{
		{"RunHPartition", []string{"hpartition"}, false, func(g *graph.Graph, _ int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunHPartition(g, dist.CongestBC, g.Degeneracy(), 1, opts))
		}},
		{"RunWReachDist", []string{"wreach"}, true, func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunWReachDist(g, degeneracyOrder(g), 2*r, dist.CongestBC, opts))
		}},
		{"RunDomSet", []string{"hpartition", "wreach", "election"}, true, func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunDomSet(g, r, dist.CongestBC, opts))
		}},
		{"RunDomSetWithOrder", []string{"wreach", "election"}, true, func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunDomSetWithOrder(g, degeneracyOrder(g), r, dist.CongestBC, opts))
		}},
		{"RunConnectedDomSet", []string{"hpartition", "wreach", "election", "connect"}, true, func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunConnectedDomSet(g, r, dist.CongestBC, opts))
		}},
		{"RunConnectedDomSetWithOrder", []string{"wreach", "election", "connect"}, true, func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunConnectedDomSetWithOrder(g, degeneracyOrder(g), r, dist.CongestBC, opts))
		}},
		{"RunRefinedOrder", []string{"hpartition", "wreach", "refined-order"}, true, func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunRefinedOrder(g, 2*r, 0, dist.CongestBC, opts))
		}},
		{"RunKSV", []string{"kubsv"}, true, func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunKSV(g, r, dist.Local, opts))
		}},
		{"RunLenzen", []string{"lenzen"}, false, func(g *graph.Graph, _ int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunLenzen(g, opts))
		}},
		{"RunLocalConnector", []string{"local-connect"}, true, func(g *graph.Graph, r int, opts dist.Options) (dist.Stats, error) {
			return resultStats(RunLocalConnector(g, KSVSequential(g, max(r, 1)), r, opts))
		}},
	}
}

// TestProbeSegmentsPipelineByPhase: for every exported driver, a probe
// shared through dist.Options yields one RunProfile per pipeline phase,
// tagged with the phase name and in order, each profile's rounds sum to its
// Stats, and the phases' statistics fold to exactly the driver's Stats —
// the segmentation the trace export renders as one Perfetto thread row per
// phase.
func TestProbeSegmentsPipelineByPhase(t *testing.T) {
	g := gen.Grid(10, 10)
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			p := &dist.Probe{}
			st, err := dc.run(g, 1, dist.Options{Probe: p})
			if err != nil {
				t.Fatal(err)
			}
			profiles := p.Profiles()
			var phases []string
			var total dist.Stats
			for _, rp := range profiles {
				phases = append(phases, rp.Phase)
				total.Add(rp.Stats)
				var messages, words int64
				for _, r := range rp.Rounds {
					messages += r.Messages
					words += r.Words
				}
				if len(rp.Rounds) != rp.Stats.Rounds || messages != rp.Stats.Messages || words != rp.Stats.Words {
					t.Errorf("phase %q: %d rounds summing to m=%d w=%d diverge from %+v",
						rp.Phase, len(rp.Rounds), messages, words, rp.Stats)
				}
			}
			if !reflect.DeepEqual(phases, dc.phases) {
				t.Fatalf("phases %q, want %q", phases, dc.phases)
			}
			if total != st {
				t.Fatalf("phase stats fold to %+v, driver stats are %+v", total, st)
			}
		})
	}
}

// TestAbortNamesFirstPhase: a round budget the first phase cannot meet
// aborts every driver there, with an error that wraps dist.ErrMaxRounds and
// names the phase, and no later phase runs.
func TestAbortNamesFirstPhase(t *testing.T) {
	g := gen.Grid(10, 10)
	for _, dc := range driverCases() {
		t.Run(dc.name, func(t *testing.T) {
			p := &dist.Probe{}
			_, err := dc.run(g, 1, dist.Options{Probe: p, MaxRounds: 1})
			if !errors.Is(err, dist.ErrMaxRounds) {
				t.Fatalf("want an error wrapping dist.ErrMaxRounds, got %v", err)
			}
			if want := "distalgo: " + dc.phases[0] + " failed"; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the first phase (%q)", err, want)
			}
			if profiles := p.Profiles(); len(profiles) != 1 || profiles[0].Phase != dc.phases[0] || profiles[0].Err == "" {
				t.Fatalf("want one aborted %q profile, got %d profiles", dc.phases[0], len(profiles))
			}
		})
	}
}

// TestBadRadiusRunsNoPhase: every driver that takes a radius (or horizon)
// rejects 0 before its first phase, so the probe records no run.
func TestBadRadiusRunsNoPhase(t *testing.T) {
	g := gen.Grid(10, 10)
	for _, dc := range driverCases() {
		if !dc.radius {
			continue
		}
		t.Run(dc.name, func(t *testing.T) {
			p := &dist.Probe{}
			if _, err := dc.run(g, 0, dist.Options{Probe: p}); err == nil {
				t.Fatal("radius 0 accepted")
			}
			if n := len(p.Profiles()); n != 0 {
				t.Fatalf("radius 0 ran %d phases before it was rejected", n)
			}
		})
	}
}
