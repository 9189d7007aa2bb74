package order

import (
	"math"

	"bedom/internal/graph"
)

// Options controls order construction.
type Options struct {
	// Radius is the target r; the order is intended to keep wcol_{2r}
	// (and wcol_{2r+1} for the connected variant) small.
	Radius int
	// AugmentationDepth is the largest number of transitive–fraternal
	// augmentation rounds; the construction stops earlier once a round adds
	// nothing.  Depth 0 degrades to a plain degeneracy order.  A negative
	// value selects the default depth, which equals Radius (so that paths of
	// length up to 2·Radius can be shortcut).
	AugmentationDepth int
	// Workers bounds the number of goroutines used by the parallel phases of
	// the construction (the augmentation walks and row merges).  0 selects
	// GOMAXPROCS.  The constructed order is identical for every worker count.
	Workers int
}

// DefaultOptions returns the options used by the high-level API for a given
// radius.
func DefaultOptions(r int) Options {
	return Options{Radius: r, AugmentationDepth: -1}
}

func (opt Options) normalised() Options {
	if opt.Radius < 1 {
		opt.Radius = 1
	}
	if opt.AugmentationDepth < 0 {
		opt.AugmentationDepth = opt.Radius
	}
	return opt
}

// Result is a constructed order together with quality diagnostics.
type Result struct {
	// Order is the constructed linear order.
	Order *Order
	// Degeneracy of the input graph.
	Degeneracy int
	// MaxOutDegree of the augmented digraph used to derive the order (equals
	// the degeneracy when no augmentation is performed).
	MaxOutDegree int
	// Rounds holds per-augmentation-round statistics.  It ends at the first
	// round that added nothing, so it can be shorter than the augmentation
	// depth: that round left the digraph unchanged, and so would every
	// later one.
	Rounds []AugmentationResult
}

// Construct computes a linear order intended to witness a small weak
// 2r-colouring number, following the sequential pipeline of Theorem 2 /
// Theorem 5: degeneracy orientation, distance-truncated transitive–fraternal
// augmentation, and a final degeneracy ordering of the augmented graph.
//
// The quality of the order (the measured wcol) can be evaluated with
// WColMeasure; the experiments record it per graph family as the constant
// c(r) of the paper.
func Construct(g *graph.Graph, opt Options) Result {
	opt = opt.normalised()
	base, degeneracy := FromDegeneracy(g)
	if opt.AugmentationDepth == 0 {
		return Result{Order: base, Degeneracy: degeneracy, MaxOutDegree: degeneracy}
	}
	d := OrientByOrder(g, base)
	// Arcs are capped at length 2r+1, saturating instead of overflowing;
	// rounds clamp the cap to 2³¹−1.
	maxLen := 2*min(opt.Radius, math.MaxInt32/2) + 1
	rounds := d.augment(opt.AugmentationDepth, maxLen, opt.Workers)
	o, _ := FromDegeneracy(d.UnderlyingWorkers(opt.Workers))
	return Result{
		Order:        o,
		Degeneracy:   degeneracy,
		MaxOutDegree: d.MaxOutDegree(),
		Rounds:       rounds,
	}
}

// ConstructDefault computes an order with the default options for radius r.
func ConstructDefault(g *graph.Graph, r int) *Order {
	return Construct(g, DefaultOptions(r)).Order
}
