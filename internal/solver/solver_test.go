package solver

import (
	"context"
	"strings"
	"testing"

	"bedom/internal/dist"
	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

func TestRegistry(t *testing.T) {
	want := []string{"dvorak", "greedy", "kubsv", "order-greedy", "paper"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if s, err := Get(""); err != nil || s.Name() != DefaultName {
		t.Fatalf("Get(\"\") = %v, %v; want the default %q", s, err, DefaultName)
	}
	if _, err := Get("no-such-solver"); err == nil {
		t.Fatal("unknown solver must fail")
	} else if !strings.Contains(err.Error(), "paper") || !strings.Contains(err.Error(), "kubsv") {
		t.Fatalf("unknown-solver error must list registered names, got: %v", err)
	}
	dn := DistNames()
	if len(dn) != 2 || dn[0] != "kubsv" || dn[1] != "paper" {
		t.Fatalf("DistNames() = %v, want [kubsv paper]", dn)
	}
	for _, name := range dn {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(DistSolver); !ok {
			t.Fatalf("%q listed by DistNames but does not implement DistSolver", name)
		}
	}
}

// TestBaselineSolversMatchDomset pins the promoted baselines to the
// implementations they wrap: the strategies must return exactly the sets of
// domset.Greedy and domset.OrderGreedy.
func TestBaselineSolversMatchDomset(t *testing.T) {
	g := gen.Grid(11, 13)
	for _, r := range []int{1, 2} {
		sub := NewLocal(g, 0)
		gs, err := mustGet(t, "greedy").Solve(context.Background(), g, r, sub)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(gs.Set, domset.Greedy(g, r)) {
			t.Fatalf("r=%d: greedy strategy diverges from domset.Greedy", r)
		}
		if gs.LowerBound < 1 || gs.Wcol != 0 {
			t.Fatalf("r=%d: greedy quality report %+v", r, gs)
		}
		os, err := mustGet(t, "order-greedy").Solve(context.Background(), g, r, sub)
		if err != nil {
			t.Fatal(err)
		}
		o, _ := sub.Order(context.Background(), r)
		if !equalInts(os.Set, domset.OrderGreedy(g, o.Positions(), r)) {
			t.Fatalf("r=%d: order-greedy strategy diverges from domset.OrderGreedy", r)
		}
	}
}

// TestPaperSolverMatchesPipeline pins the extracted paper strategy to the
// direct pipeline it refactors: AlgorithmOne on the default order, wcol_2r.
func TestPaperSolverMatchesPipeline(t *testing.T) {
	g := gen.Apollonian(120, 5)
	for _, r := range []int{1, 2} {
		res, err := mustGet(t, "paper").Solve(context.Background(), g, r, NewLocal(g, 0))
		if err != nil {
			t.Fatal(err)
		}
		o := order.ConstructDefault(g, r)
		if !equalInts(res.Set, domset.AlgorithmOne(g, o, r)) {
			t.Fatalf("r=%d: paper strategy diverges from the direct pipeline", r)
		}
		if res.Wcol != order.WColMeasure(g, o, 2*r) {
			t.Fatalf("r=%d: paper wcol mismatch", r)
		}
	}
}

// TestAllSolversValidAndDeterministic is the cross-solver property test:
// every registered strategy, on random grid/tree/apollonian instances, must
// return a valid distance-r dominating set, identically for substrate worker
// counts 1, 2 and 8 (run under -race in CI).
func TestAllSolversValidAndDeterministic(t *testing.T) {
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.GridWithHoles(10, 12, 0.1, 11)},
		{"tree", gen.RandomTree(130, 23)},
		{"apollonian", gen.Apollonian(110, 42)},
	}
	for _, inst := range instances {
		for _, r := range []int{1, 2} {
			for _, name := range Names() {
				s, err := Get(name)
				if err != nil {
					t.Fatal(err)
				}
				var first Result
				for i, workers := range []int{1, 2, 8} {
					res, err := s.Solve(context.Background(), inst.g, r, NewLocal(inst.g, workers))
					if err != nil {
						t.Fatalf("%s/%s r=%d workers=%d: %v", inst.name, name, r, workers, err)
					}
					if !domset.Check(inst.g, res.Set, r) {
						t.Fatalf("%s/%s r=%d: invalid dominating set", inst.name, name, r)
					}
					if res.LowerBound < 1 || len(res.Set) < res.LowerBound {
						t.Fatalf("%s/%s r=%d: implausible lower bound %d for |D|=%d",
							inst.name, name, r, res.LowerBound, len(res.Set))
					}
					if i == 0 {
						first = res
					} else if !equalInts(res.Set, first.Set) || res.LowerBound != first.LowerBound || res.Wcol != first.Wcol {
						t.Fatalf("%s/%s r=%d: result depends on substrate workers", inst.name, name, r)
					}
				}
			}
		}
	}
}

// TestDistSolversValid asserts that each DistSolver's distributed protocol
// returns a valid set with simulator cost accounting; for kubsv the set must
// additionally equal the sequential Solve (the protocol is a faithful
// distribution of the same algorithm — the paper pipeline's distributed
// order differs from its sequential one by design, so only validity is
// required there).
func TestDistSolversValid(t *testing.T) {
	g := gen.Grid(9, 9)
	for _, name := range DistNames() {
		s, _ := Get(name)
		ds := s.(DistSolver)
		for _, r := range []int{1, 2} {
			res, err := ds.SolveDist(g, r, dist.Options{})
			if err != nil {
				t.Fatalf("%s r=%d: %v", name, r, err)
			}
			if !domset.Check(g, res.Set, r) {
				t.Fatalf("%s r=%d: invalid distributed dominating set", name, r)
			}
			if res.Stats.Rounds == 0 || res.Stats.Messages == 0 {
				t.Fatalf("%s r=%d: missing simulator cost %+v", name, r, res)
			}
			if name == "kubsv" {
				seq, err := s.Solve(context.Background(), g, r, NewLocal(g, 0))
				if err != nil {
					t.Fatal(err)
				}
				if !equalInts(res.Set, seq.Set) {
					t.Fatalf("kubsv r=%d: distributed set %v != sequential %v", r, res.Set, seq.Set)
				}
			}
		}
	}
}

// TestDistModelPerStrategy checks that each distributed strategy runs in
// its paper model: every phase profile of a paper run is CONGEST_BC and
// every one of a kubsv run is LOCAL.  Sets and Stats cannot tell the models
// apart (TestLocalEqualsCongestBC), so the check reads the model the
// simulator recorded.
func TestDistModelPerStrategy(t *testing.T) {
	g := gen.Grid(7, 7)
	want := map[string]string{"paper": "CONGEST_BC", "kubsv": "LOCAL"}
	for _, name := range DistNames() {
		ds := mustGet(t, name).(DistSolver)
		probe := &dist.Probe{}
		if _, err := ds.SolveDist(g, 1, dist.Options{Probe: probe}); err != nil {
			t.Fatal(err)
		}
		profiles := probe.Profiles()
		if len(profiles) == 0 {
			t.Fatalf("%s: no profiles", name)
		}
		for _, p := range profiles {
			if p.Model != want[name] {
				t.Errorf("%s: phase %s ran in %s, want %s", name, p.Phase, p.Model, want[name])
			}
		}
	}
}

func mustGet(t *testing.T, name string) Solver {
	t.Helper()
	s, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
