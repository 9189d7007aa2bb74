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
// Every public driver returns both the computed objects and the accumulated
// round/message statistics of the underlying simulator runs, so experiments
// can report round complexity and congestion.
package distalgo

import (
	"bedom/internal/dist"
)

// PipelineStats accumulates simulator statistics across the phases of a
// composed algorithm (the paper's algorithms are sequential compositions of
// sub-protocols; rounds add up).  The embedded totals are the phases folded
// with dist.Stats.Add.
type PipelineStats struct {
	dist.Stats
	// Phases records the per-phase statistics in order.
	Phases []dist.Stats
}

// Add folds one phase's statistics into the pipeline totals.
func (p *PipelineStats) Add(s dist.Stats) {
	p.Stats.Add(s)
	p.Phases = append(p.Phases, s)
}
