package exp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"bedom/internal/dist"
	"bedom/internal/domset"
	"bedom/internal/obs"
	"bedom/internal/solver"
)

// E10SolverHeadToHead compares the registered solver strategies head to head
// on the same instances: set size and certified quality for every strategy,
// plus simulator cost (rounds, messages, message width) for the strategies
// that implement the distributed interface.  The cells are deterministic, so
// the perf gate can diff them across commits.  Each strategy's solve time
// is a bench/ row: solver.*.solve_ms.
func E10SolverHeadToHead(cfg Config) *Table {
	t := &Table{
		ID:    "E10",
		Title: "Solver strategies head to head (paper vs kubsv vs dvorak vs greedy baselines)",
		Header: []string{"family", "r", "n", "solver", "|D|", "LB", "ratio", "valid",
			"model", "rounds", "messages", "max msg words"},
	}
	ctx := context.Background()
	var phases []string
	for _, f := range qualityFamilies(cfg) {
		for _, r := range cfg.Radii {
			g := instance(f, cfg.N/2, cfg.Seed+9)
			// One memoized substrate per instance: the strategies share the
			// order exactly like they do behind the engine's cache, so the
			// comparison isolates the algorithms, not substrate rebuilds.
			sub := solver.NewLocal(g, 0)
			// One lower bound per (instance, r), seeded from the paper
			// strategy's set, so the ratio column is comparable across rows.
			paper, err := solver.Get(solver.DefaultName)
			if err != nil {
				continue
			}
			pres, err := paper.Solve(ctx, g, r, sub)
			if err != nil {
				continue
			}
			lb, _ := domset.BestLowerBound(g, r, pres.Set, cfg.SmallN, 0)
			for _, name := range solver.Names() {
				s, err := solver.Get(name)
				if err != nil {
					continue
				}
				res, err := s.Solve(ctx, g, r, sub)
				if err != nil {
					continue
				}
				valid := domset.Check(g, res.Set, r)
				model, rounds, messages, maxWords := "-", "-", "-", "-"
				if ds, ok := s.(solver.DistSolver); ok {
					// Every distributed run carries a round probe: the
					// per-phase breakdown lands in the notes (perf-gate
					// exempt) and, with Config.TraceDir set, as a Perfetto
					// trace artifact per run.
					probe := &dist.Probe{}
					dres, derr := ds.SolveDist(g, r, dist.Options{Probe: probe})
					if derr == nil {
						profiles := probe.Profiles()
						model = profiles[0].Model
						rounds = fmt.Sprintf("%d", dres.Stats.Rounds)
						messages = fmt.Sprintf("%d", dres.Stats.Messages)
						maxWords = fmt.Sprintf("%d", dres.Stats.MaxMessageWords)
						phases = append(phases, phaseBreakdown(f.Name, r, name, profiles))
						if cfg.TraceDir != "" {
							file := fmt.Sprintf("E10_%s_r%d_%s.trace.json", f.Name, r, name)
							if err := writeTraceArtifact(cfg.TraceDir, file, profiles); err != nil {
								t.Notes = append(t.Notes, "trace artifact error: "+err.Error())
							}
						}
					}
				}
				t.AddRow(f.Name, r, g.N(), name, len(res.Set), lb, ratio(len(res.Set), lb), valid,
					model, rounds, messages, maxWords)
			}
		}
	}
	t.Notes = append(t.Notes,
		"LB is one scattered-set lower bound per (family, r) instance, seeded from the paper strategy's set, so ratios are comparable across strategies.",
		"rounds/messages come from the simulator runs of the distributed strategies (paper: CONGEST_BC pipeline, kubsv: exactly 7r broadcast-only LOCAL rounds).",
		"per-phase rounds/messages/words (excluded from the perf-gate diff): "+joinLimited(phases, 12))
	return t
}

// phaseBreakdown renders one distributed run's per-phase cost for the notes,
// e.g. "grid r=1 paper: hpartition 4r/320m/960w; wreach 6r/…".
func phaseBreakdown(family string, r int, solverName string, profiles []dist.RunProfile) string {
	s := fmt.Sprintf("%s r=%d %s:", family, r, solverName)
	for i, rp := range profiles {
		if i > 0 {
			s += ";"
		}
		s += fmt.Sprintf(" %s %dr/%dm/%dw", rp.Phase, rp.Stats.Rounds, rp.Stats.Messages, rp.Stats.Words)
	}
	return s
}

// writeTraceArtifact writes one run's round profiles as a Chrome trace-event
// document (openable in ui.perfetto.dev) under dir.
func writeTraceArtifact(dir, name string, profiles []dist.RunProfile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, dist.PerfettoEvents(profiles)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// joinLimited joins up to max entries with "; ", eliding the rest.
func joinLimited(entries []string, max int) string {
	if len(entries) == 0 {
		return "none"
	}
	out := ""
	for i, e := range entries {
		if i == max {
			out += fmt.Sprintf("; … (%d more)", len(entries)-max)
			break
		}
		if i > 0 {
			out += "; "
		}
		out += e
	}
	return out
}
