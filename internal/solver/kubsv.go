package solver

import (
	"context"

	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/graph"
)

// ksvSolver is the constant-round election + cleanup strategy in the spirit
// of Kublenz–Siebertz–Vigny (arXiv 2012.02701); see internal/distalgo/kubsv.go
// for the algorithm.  It needs no order substrate at all — that is its
// selling point: 7r simulator rounds instead of the paper pipeline's
// O(log n).  The sequential Solve runs the reference implementation, which
// is exactly the set the distributed protocol elects.
type ksvSolver struct{}

func (ksvSolver) Name() string { return "kubsv" }

func (ksvSolver) Solve(_ context.Context, g *graph.Graph, r int, _ Substrate) (Result, error) {
	D := distalgo.KSVSequential(g, r)
	return Result{Set: D, LowerBound: domset.ScatteredLowerBound(g, r, D)}, nil
}

func (ksvSolver) SolveDist(g *graph.Graph, r int, sim dist.Options) (DistResult, error) {
	res, err := distalgo.RunKSV(g, r, dist.Local, sim)
	if err != nil {
		return DistResult{}, err
	}
	return DistResult{Set: res.Set, Stats: res.Stats}, nil
}
