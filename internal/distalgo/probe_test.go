package distalgo

import (
	"testing"

	"bedom/internal/dist"
	"bedom/internal/gen"
)

// TestProbeSegmentsPipelineByPhase: a probe shared through dist.Options
// yields one RunProfile per pipeline phase, tagged with the phase name, and
// the phases' statistics fold to exactly the pipeline's Stats — the
// segmentation the trace export renders as one Perfetto thread row per
// phase.
func TestProbeSegmentsPipelineByPhase(t *testing.T) {
	g := gen.Grid(10, 10)
	p := &dist.Probe{}
	res, err := RunDomSet(g, 1, dist.CongestBC, dist.Options{Probe: p})
	if err != nil {
		t.Fatal(err)
	}
	profiles := p.Profiles()
	wantPhases := []string{"hpartition", "wreach", "election"}
	if len(profiles) != len(wantPhases) {
		t.Fatalf("got %d profiles for %d phases", len(profiles), len(wantPhases))
	}
	var total dist.Stats
	for i, rp := range profiles {
		if rp.Phase != wantPhases[i] {
			t.Fatalf("profile %d tagged %q, want %q", i, rp.Phase, wantPhases[i])
		}
		total.Add(rp.Stats)
		var messages, words int64
		for _, r := range rp.Rounds {
			messages += r.Messages
			words += r.Words
		}
		if messages != rp.Stats.Messages || words != rp.Stats.Words {
			t.Fatalf("phase %q: per-round sums (m=%d w=%d) diverge from %+v",
				rp.Phase, messages, words, rp.Stats)
		}
	}
	if total != res.Stats {
		t.Fatalf("phase stats fold to %+v, pipeline stats are %+v", total, res.Stats)
	}
}
