//go:build (linux || darwin) && (amd64 || arm64)

// Zero-copy snapshot serving.  A raw-variant snapshot (EncodeSnapshotRaw) is
// mapped read-only; its OFFSETS and TARGETS payloads are 8-aligned in the
// file, and a page-aligned mapping preserves that alignment in memory, so the
// two []int32 CSR arrays are reinterpreted in place — cold-open allocation is
// O(n° of sections), independent of m, and the page cache backs the graph
// directly.  The build tag pins the fast path to 64-bit little-endian
// platforms: the in-place cast assumes both, and 32-bit address spaces cannot
// safely map multi-gigabyte snapshots anyway.  Everything else falls back to
// the decoding path via ErrNotMmapable (see mmap_disabled.go).
package store

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"

	"bedom/internal/graph"
)

// MmapSupported reports whether this build can serve raw snapshots zero-copy.
func MmapSupported() bool { return true }

// Mapping is one read-only memory-mapped snapshot file.  The CSR arrays of
// the graph returned alongside it borrow the mapped region: Close unmaps, and
// any use of the graph afterwards faults.  Callers therefore keep the Mapping
// open for the graph's whole lifetime (the Store does this for everything it
// maps during recovery; see ReleaseMappings for the ordering rules).
type Mapping struct {
	path string
	data []byte
}

// Path returns the snapshot file the mapping was opened from.
func (m *Mapping) Path() string { return m.path }

// Size returns the mapped length in bytes.
func (m *Mapping) Size() int64 { return int64(len(m.data)) }

// Close unmaps the snapshot.  The graph served from this mapping must not be
// used afterwards.
func (m *Mapping) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return syscall.Munmap(data)
}

// OpenMmapSnapshot maps the raw-variant snapshot at path and serves its graph
// zero-copy: parseSnapshot verifies every section checksum in place, and the
// returned graph's CSR arrays are borrowed from the mapping (page cache),
// validated structurally via graph.FromCSRBorrowed.  Varint-format files,
// misaligned payloads and mapping failures return ErrNotMmapable so the
// caller can fall back to DecodeSnapshot; corrupt files return
// ErrBadSnapshot, exactly as DecodeSnapshot would.
func OpenMmapSnapshot(path string) (SnapshotMeta, *graph.Graph, *Mapping, error) {
	var meta SnapshotMeta
	f, err := os.Open(path)
	if err != nil {
		return meta, nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return meta, nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return meta, nil, nil, fmt.Errorf("%w: empty file", ErrBadSnapshot)
	}
	if size > int64(^uint(0)>>1) {
		return meta, nil, nil, fmt.Errorf("%w: file size %d", ErrNotMmapable, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return meta, nil, nil, fmt.Errorf("%w: mmap: %v", ErrNotMmapable, err)
	}
	// Checksum verification below touches every page anyway; telling the
	// kernel up front turns that into sequential readahead instead of one
	// fault per page.  Advice is best-effort — errors are ignored.
	_ = syscall.Madvise(data, syscall.MADV_WILLNEED)

	meta, g, err := borrowSnapshot(data)
	if err != nil {
		_ = syscall.Munmap(data)
		return meta, nil, nil, err
	}
	return meta, g, &Mapping{path: path, data: data}, nil
}

// borrowSnapshot parses a mapped snapshot and builds its graph on the
// mapping's own bytes.
func borrowSnapshot(data []byte) (SnapshotMeta, *graph.Graph, error) {
	s, err := parseSnapshot(data)
	if err != nil {
		return s.meta, nil, err
	}
	if !s.raw {
		return s.meta, nil, fmt.Errorf("%w: varint format (no raw-sections flag)", ErrNotMmapable)
	}
	if s.offAt%rawAlign != 0 || s.tgtAt%rawAlign != 0 {
		// Written by a non-padding encoder; the arrays cannot be cast in
		// place, so serve the file through the decoding path instead.
		return s.meta, nil, fmt.Errorf("%w: raw payload misaligned (offsets at %d, targets at %d)", ErrNotMmapable, s.offAt, s.tgtAt)
	}
	g, err := graph.FromCSRBorrowed(castInt32LE(s.off), castInt32LE(s.tgt))
	if err != nil {
		return s.meta, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return s.meta, g, nil
}

// castInt32LE reinterprets a little-endian byte payload as []int32 in place.
// The build tag guarantees a little-endian host; borrowSnapshot checks
// rawAlign (8-byte) alignment relative to the page-aligned mapping base.
func castInt32LE(payload []byte) []int32 {
	if len(payload) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&payload[0])), len(payload)/4)
}
