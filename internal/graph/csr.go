package graph

import "fmt"

// CSR returns the finalized graph's raw compressed-sparse-row arrays: the
// neighbors of v are tgt[off[v]:off[v+1]], sorted strictly increasing.  The
// slices are the graph's own backing arrays and must not be modified.  CSR is
// the export hook for the persistence codec (internal/store): a snapshot that
// round-trips off/tgt exactly reproduces the graph bit-identically, because
// Finalize's CSR layout is canonical — the same edge set always packs to the
// same arrays.  It panics on a non-finalized graph (the construction-side
// adjacency lists have no canonical layout worth persisting).
func (g *Graph) CSR() (off, tgt []int32) {
	if !g.finalized {
		panic("graph.CSR: graph is not finalized")
	}
	return g.off, g.tgt
}

// FromCSR reconstructs a finalized graph directly from compressed-sparse-row
// arrays, as produced by CSR.  The arrays are adopted, not copied: the caller
// must not modify them afterwards.  The layout is validated structurally
// (monotone offsets, strictly sorted in-range rows, no self-loops, symmetric
// adjacency) so that a corrupted or hand-built snapshot cannot produce a
// graph that violates the library's invariants.
func FromCSR(off, tgt []int32) (*Graph, error) {
	return fromCSR(off, tgt, true)
}

// FromCSRBorrowed is FromCSR minus the O(m·log deg) symmetry pass, for
// borrowed (e.g. mmap'd) arrays whose integrity is already established out of
// band — a checksum-verified snapshot written by a process that only encodes
// finalized graphs cannot be asymmetric without also failing its CRC — and
// for arrays a caller has just built symmetric by construction.  The
// cheap structural checks (monotone offsets, strictly sorted in-range rows,
// no self-loops, even entry count) still run: they are O(n+m) reads with no
// allocation, and they are what keeps a trusted-but-wrong array from causing
// index panics deep inside the algorithms.  The arrays are borrowed, not
// copied: they must stay valid and unmodified for the graph's lifetime (for
// a memory-mapped snapshot, until the mapping is unmapped).
func FromCSRBorrowed(off, tgt []int32) (*Graph, error) {
	return fromCSR(off, tgt, false)
}

func fromCSR(off, tgt []int32, checkSymmetry bool) (*Graph, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("graph: FromCSR: empty offsets array")
	}
	n := len(off) - 1
	if off[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR: offsets must start at 0, got %d", off[0])
	}
	if int(off[n]) != len(tgt) {
		return nil, fmt.Errorf("graph: FromCSR: offsets end at %d but %d targets given", off[n], len(tgt))
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("graph: FromCSR: offsets decrease at vertex %d", v)
		}
		row := tgt[off[v]:off[v+1]]
		for i, w := range row {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: FromCSR: neighbor %d of %d out of range [0,%d)", w, v, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: FromCSR: self-loop at %d", v)
			}
			if i > 0 && row[i-1] >= w {
				return nil, fmt.Errorf("graph: FromCSR: row of %d not strictly sorted at entry %d", v, i)
			}
		}
	}
	if len(tgt)%2 != 0 {
		return nil, fmt.Errorf("graph: FromCSR: odd adjacency entry count %d", len(tgt))
	}
	g := &Graph{n: n, m: len(tgt) / 2, off: off, tgt: tgt, finalized: true}
	// Symmetry needs the binary-searchable rows, so it is checked after the
	// structural pass above established sortedness.
	if checkSymmetry {
		for v := 0; v < n; v++ {
			for _, w := range tgt[off[v]:off[v+1]] {
				if !g.HasEdge(int(w), v) {
					return nil, fmt.Errorf("graph: FromCSR: asymmetric edge {%d,%d}", v, w)
				}
			}
		}
	}
	return g, nil
}
