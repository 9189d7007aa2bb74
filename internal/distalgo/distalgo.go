// Package distalgo implements the paper's distributed algorithms on top of
// the simulator in internal/dist:
//
//   - a Barenboim–Elkin style H-partition that produces the linear order
//     (super-ids) used by everything else (the paper obtains its order from
//     Nešetřil–Ossona de Mendez [46], Theorem 3; see DESIGN.md for the
//     substitution notes),
//   - WReachDist, the distributed computation of weak reachability sets with
//     routing paths (Algorithm 4, Lemma 7, Theorem 8),
//   - the distributed distance-r dominating set election (Theorem 9),
//   - the distributed connected distance-r dominating set (Theorem 10),
//   - the LOCAL-model connector that turns any distance-r dominating set
//     into a connected one in 3r+1 rounds (Lemma 16, Theorem 17), and
//   - the Lenzen–Pignolet–Wattenhofer constant-round LOCAL dominating set
//     approximation for planar graphs [36], used as the baseline that
//     Theorem 17 is combined with.
//
// Every public driver is a chain of simulator phases run by one pipeline on
// one dist.Runner, whose run method starts each phase, names it and adds
// its cost to the pipeline's total.  So every driver returns the computed
// objects with the round/message statistics of all its phases, and a
// dist.Probe passed in the options records each phase separately.
//
// Every message is a span of int32 words, one word per vertex id or small
// integer.  Each protocol documents its encoding beside its node (DESIGN.md
// §2 tabulates them), and one that sends two kinds of message in a run
// (Lenzen, the connector, kubsv) tells them apart by the round they arrive
// in.
package distalgo

import (
	"fmt"
	"slices"

	"bedom/internal/dist"
	"bedom/internal/graph"
)

// pipeline is one distributed computation: a chain of simulator phases on
// one graph in one model.  The exported function that makes it releases
// it when it ends, on every path, so the next pipeline reuses its memory.
type pipeline struct {
	g     *graph.Graph
	model dist.Model
	opts  dist.Options
	// runner runs every phase; the first phase makes it.
	runner *dist.Runner
	// alg4 is Algorithm 4's memory, taken by the wreach phase.
	alg4 wreachMem
	// Stats totals the cost of the phases run so far.
	Stats dist.Stats
}

// release ends the pipeline: the runner's arrays and Algorithm 4's memory
// go to their free lists, for the next pipeline whose graph they fit.
// Nothing a pipeline returns points into them.
func (p *pipeline) release() {
	if p.runner != nil {
		p.runner.Release()
		p.runner = nil
	}
	if m := p.alg4; m.nodes != nil {
		p.alg4 = wreachMem{}
		// The cleared nodes drop every table that outgrew its window.
		clear(m.nodes)
		wreachSets.Put(m)
	}
}

// run executes one phase: a simulator run labelled phase whose nodes come
// from node.  Its cost is added to the pipeline's total, and a failure is
// returned wrapped with the phase's name.
func (p *pipeline) run(phase string, node func(v int) dist.Node) error {
	if p.runner == nil {
		p.runner = dist.NewRunner(p.g, p.model, p.opts)
	}
	st, err := p.runner.Run(phase, node)
	p.Stats.Add(st)
	if err != nil {
		return fmt.Errorf("distalgo: %s failed: %w", phase, err)
	}
	return nil
}

// atLeastOne rejects a radius or horizon below 1, before any phase runs.
func atLeastOne(name string, x int) error {
	if x < 1 {
		return fmt.Errorf("distalgo: %s must be ≥ 1, got %d", name, x)
	}
	return nil
}

// sortedDistinct sorts the tokens toks and drops repeats.
func sortedDistinct(toks [][]int32) [][]int32 {
	slices.SortFunc(toks, slices.Compare)
	return slices.CompactFunc(toks, slices.Equal)
}
