package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/obs"
	"bedom/internal/solver"
)

// TestMixedSolverNoCrossContamination runs every registered strategy against
// one graph and asserts that per-solver results cache independently: warm
// queries return each strategy's own set (not another's), and a mutation
// invalidates all of them at once.
func TestMixedSolverNoCrossContamination(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	cold := make(map[string]*Response)
	for _, name := range solver.Names() {
		resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Solver != name {
			t.Fatalf("response echoes solver %q, want %q", resp.Solver, name)
		}
		if !domset.Check(e.mustLookup(t, "g"), resp.Set, 2) {
			t.Fatalf("%s: invalid dominating set", name)
		}
		cold[name] = resp
	}
	// The strategies are genuinely different pipelines on this instance; if
	// all sets coincided, the cross-contamination assertions below would be
	// vacuous.
	distinct := make(map[int]bool)
	for _, resp := range cold {
		distinct[resp.Size] = true
	}
	if len(distinct) < 2 {
		t.Fatal("test instance does not separate the strategies")
	}
	// Warm round: every strategy must be a result-cache hit serving its own
	// set byte-for-byte.
	for _, name := range solver.Names() {
		resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("%s: warm query missed the result cache", name)
		}
		if !equalInts(resp.Set, cold[name].Set) || resp.LowerBound != cold[name].LowerBound || resp.Wcol != cold[name].Wcol {
			t.Fatalf("%s: warm result diverges from cold result", name)
		}
	}
	// The default resolves to paper and shares its cache entry.
	def, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if def.Solver != solver.DefaultName || !def.CacheHit || !equalInts(def.Set, cold["paper"].Set) {
		t.Fatalf("default solver response %+v does not alias the paper entry", def)
	}
	// Mutation invalidates every strategy's cached result.
	if _, err := e.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}
	// The first query after the mutation must rebuild (a CacheHit here
	// would mean a stale generation was served); the strategies after it
	// reuse the freshly rebuilt order, and paper's second query is a hit.
	first, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: "paper"})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("paper: served a stale result after mutation")
	}
	for _, name := range solver.Names() {
		resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != (name == "paper") {
			t.Fatalf("%s: post-mutation query reports cache_hit %v", name, resp.CacheHit)
		}
		if !domset.Check(e.mustLookup(t, "g"), resp.Set, 2) {
			t.Fatalf("%s: post-mutation set invalid on the new topology", name)
		}
	}
	// Per-solver counters: 3 queries per strategy; paper additionally served
	// the default query and the explicit post-mutation rebuild check.
	st := e.Stats()
	counts := make(map[string]uint64)
	for _, sc := range st.PerSolver {
		counts[sc.Solver] = sc.Count
	}
	for _, name := range solver.Names() {
		want := uint64(3)
		if name == solver.DefaultName {
			want = 5
		}
		if counts[name] != want {
			t.Fatalf("per-solver count for %q = %d, want %d (%+v)", name, counts[name], want, st.PerSolver)
		}
	}
}

// TestSolverValidation covers the request-validation policy: unknown names
// fail with ErrInvalidRequest listing the registry, non-distributed solvers
// are rejected for dist-domset, and paper-pinned kinds reject other names.
func TestSolverValidation(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(6, 6)
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1, Solver: "nope"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("unknown solver: %v", err)
	} else if !strings.Contains(err.Error(), "paper") {
		t.Fatalf("unknown-solver error must list the registry: %v", err)
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedDominatingSet, R: 1, Solver: "greedy"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("non-distributed solver on dist-domset: %v", err)
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 1, Solver: "kubsv"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("cover with non-paper solver: %v", err)
	}
	// Compatible spellings succeed.
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 1, Solver: "paper"}); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedDominatingSet, R: 1, Solver: "kubsv"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Solver != "kubsv" || resp.Rounds != 7 {
		t.Fatalf("kubsv dist response %+v, want 7 rounds", resp)
	}
}

// TestGreedySolverOnDomsetKind pins the one spelling of the greedy baseline:
// the domset kind with solver "greedy" returns exactly domset.Greedy, and
// "greedy" is not a query kind.
func TestGreedySolverOnDomsetKind(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(10, 10)
	resp, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1, Solver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Solver != "greedy" {
		t.Fatalf("solver greedy served by %q", resp.Solver)
	}
	if resp.CacheHit {
		t.Fatal("greedy needs no substrates, but its cold query computed the answer: it must not report CacheHit")
	}
	if !equalInts(resp.Set, domset.Greedy(g, 1)) {
		t.Fatal("solver greedy diverges from domset.Greedy")
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: "greedy", R: 1}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("kind greedy: want ErrInvalidRequest, got %v", err)
	}
}

// TestNestedBuildsInQueryTrace: the order and wreach builds nested inside a
// cold domset, cds or cover answer build are detached from the query's
// deadline but not from its trace, so they show up in the query's span
// trail next to the answer's substrate:<kind> span; a warm repeat is
// served from the cached answer and fetches no nested substrate.
func TestNestedBuildsInQueryTrace(t *testing.T) {
	for _, kind := range []Kind{KindDominatingSet, KindConnectedDominatingSet, KindCover} {
		e := testEngine(t, Config{})
		if _, err := e.Register("g", gen.Grid(30, 30)); err != nil {
			t.Fatal(err)
		}
		stages := func() map[string]bool {
			tr := obs.NewTrace(obs.NewQueryID())
			if _, err := e.Do(obs.WithTrace(context.Background(), tr), Request{Graph: "g", Kind: kind, R: 2}); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, s := range tr.Spans() {
				seen[s.Name] = true
			}
			return seen
		}
		answerSpan := "substrate:" + string(kind)
		cold := stages()
		if !cold["substrate:order"] || !cold["substrate:wreach"] || !cold[answerSpan] {
			t.Fatalf("%s: cold query trace lacks its nested builds: %v", kind, cold)
		}
		warm := stages()
		if warm["substrate:order"] || warm["substrate:wreach"] || !warm[answerSpan] {
			t.Fatalf("%s: warm query trace records nested fetches or lacks %s: %v", kind, answerSpan, warm)
		}
	}
}
