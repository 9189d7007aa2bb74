// Package store is the durable persistence layer behind the query engine:
// a versioned, checksummed binary snapshot codec for finalized CSR graphs, an
// append-only delta write-ahead log (WAL) with group-commit fsync batching,
// and the directory layout + recovery scan that ties them together.
//
// The paper's pipelines (orders, weak-reachability sets, covers) are cheap to
// *query* but expensive to *build* — the observation both Kublenz–Siebertz–
// Vigny (2021) and Heydt et al. (2022) rest on — so the engine caches them
// per graph generation.  This package makes the inputs of those builds
// survive a process death: graph topologies are persisted as snapshots,
// every applied delta is teed into the WAL, and a restarted engine replays
// snapshot+WAL into exactly the topology it served before the crash.  The
// substrate pipeline is deterministic (DESIGN.md §6), so identical topology
// means byte-identical orders, dominating sets and covers after restart.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bedom/internal/graph"
)

// Snapshot file format (all multi-byte integers little-endian, varints are
// unsigned LEB128 as produced by encoding/binary.AppendUvarint):
//
//	magic   "BDSN" (4 bytes)
//	version uint16 (currently 1)
//	flags   uint16 (reserved, 0)
//	sections, each:
//	    tag     byte
//	    length  uvarint (payload bytes)
//	    payload length bytes
//	    crc     uint32, CRC-32C (Castagnoli) of the payload
//	terminated by the END section (empty payload).
//
// Sections appear in a fixed order: META, OFFSETS, TARGETS, END.
//
//	META    = name (uvarint length + bytes), epoch, covered LSN, generation,
//	          n, m (all uvarint)
//	OFFSETS = n uvarints: the degree of each vertex (the CSR offsets array is
//	          their prefix sum — degrees are small, offsets are not, so the
//	          delta form packs tighter)
//	TARGETS = per vertex: first neighbor as uvarint, then the gaps to each
//	          following neighbor (strictly positive — CSR rows are strictly
//	          sorted)
//
// Decoding rebuilds off/tgt exactly and hands them to graph.FromCSR, so a
// decoded snapshot is bit-identical to the encoded graph (Finalize's CSR
// layout is canonical for an edge set).
//
// Raw-aligned variant (header flag flagRawSections, written by
// EncodeSnapshotRaw): the same section framing and per-section CRC-32C, but
// OFFSETS is the CSR offsets array verbatim — (n+1) little-endian int32 — and
// TARGETS is the targets array verbatim (2m little-endian int32), each
// preceded by a PAD section sized so the payload starts at a file offset that
// is a multiple of 8.  A page-aligned memory mapping of the file can then
// serve both arrays as borrowed []int32 slices with no decode-time allocation
// proportional to m (see OpenMmapSnapshot); readers without mmap support
// decode the raw sections through the ordinary allocating path.
const (
	snapshotMagic   = "BDSN"
	snapshotVersion = 1

	// flagRawSections marks the raw-aligned variant.  All other flag bits
	// remain reserved and are rejected.
	flagRawSections uint16 = 0x0001

	tagMeta    byte = 0x01
	tagOffsets byte = 0x02
	tagTargets byte = 0x03
	tagPad     byte = 0x04
	tagEnd     byte = 0xFF

	// rawAlign is the file-offset alignment of raw section payloads; 8 keeps
	// the int32 arrays alignable on every architecture the mmap path builds
	// for, with headroom for a future int64 variant.
	rawAlign = 8
)

// crcTable is the Castagnoli polynomial table shared by snapshots and WAL
// records (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Codec errors.
var (
	// ErrBadSnapshot wraps every snapshot decoding failure (bad magic,
	// checksum mismatch, malformed section, invalid CSR).
	ErrBadSnapshot = errors.New("store: bad snapshot")
	// ErrVersion is returned for snapshots written by an incompatible format
	// version.  It wraps ErrBadSnapshot.
	ErrVersion = fmt.Errorf("%w: unsupported version", ErrBadSnapshot)
	// ErrNotMmapable is returned by the zero-copy open path when a snapshot
	// must be served through the decoding path instead: the file is the
	// varint variant, a raw payload missed its alignment, the platform has
	// no mmap support, or the mapping syscall failed.  It does NOT indicate
	// corruption: a corrupt file fails with ErrBadSnapshot from whichever
	// path parses it.
	ErrNotMmapable = errors.New("store: snapshot cannot be memory-mapped")
)

// SnapshotMeta is the bookkeeping persisted alongside a graph topology.
type SnapshotMeta struct {
	// Name is the engine registry name of the graph.
	Name string
	// Epoch identifies one registration of the name: re-registering a name
	// bumps the epoch, and WAL records carry the epoch they were applied
	// under, so recovery never replays an old registration's deltas onto a
	// new graph.
	Epoch uint64
	// CoveredLSN is the log position this snapshot covers: every WAL record
	// for this (name, epoch) with LSN ≤ CoveredLSN is already folded into
	// the snapshot and must be skipped during replay.
	CoveredLSN uint64
	// Gen is the engine cache generation of the graph at snapshot time;
	// restoring it keeps /stats generations continuous across a restart.
	Gen uint64
}

// EncodeSnapshot writes g (which must be finalized) and its meta as one
// snapshot document in the varint-packed format.  The store reads this
// format, which older data directories hold, but writes EncodeSnapshotRaw.
func EncodeSnapshot(w io.Writer, meta SnapshotMeta, g *graph.Graph) error {
	if !g.Finalized() {
		return errors.New("store: EncodeSnapshot: graph is not finalized")
	}
	off, tgt := g.CSR()
	n := g.N()

	if err := writeSnapshotHeader(w, 0); err != nil {
		return err
	}
	if err := writeSection(w, tagMeta, metaPayload(meta, n, g.M())); err != nil {
		return err
	}

	offPayload := make([]byte, 0, n)
	for v := 0; v < n; v++ {
		offPayload = binary.AppendUvarint(offPayload, uint64(off[v+1]-off[v]))
	}
	if err := writeSection(w, tagOffsets, offPayload); err != nil {
		return err
	}

	tgtPayload := make([]byte, 0, len(tgt))
	for v := 0; v < n; v++ {
		row := tgt[off[v]:off[v+1]]
		for i, t := range row {
			if i == 0 {
				tgtPayload = binary.AppendUvarint(tgtPayload, uint64(t))
			} else {
				tgtPayload = binary.AppendUvarint(tgtPayload, uint64(t-row[i-1]))
			}
		}
	}
	if err := writeSection(w, tagTargets, tgtPayload); err != nil {
		return err
	}
	return writeSection(w, tagEnd, nil)
}

// EncodeSnapshotRaw writes g and its meta in the raw-aligned variant: the CSR
// offsets and targets arrays verbatim as little-endian int32 sections, padded
// so each payload starts at a multiple of rawAlign in the file.  The encoding
// streams through a fixed scratch buffer, so encoding a 10⁷-vertex graph does
// not allocate a second copy of its arrays.
func EncodeSnapshotRaw(w io.Writer, meta SnapshotMeta, g *graph.Graph) error {
	if !g.Finalized() {
		return errors.New("store: EncodeSnapshotRaw: graph is not finalized")
	}
	off, tgt := g.CSR()
	n := g.N()

	pw := &positionWriter{w: w}
	if err := writeSnapshotHeader(pw, flagRawSections); err != nil {
		return err
	}
	if err := writeSection(pw, tagMeta, metaPayload(meta, n, g.M())); err != nil {
		return err
	}
	if err := writePad(pw, 4*len(off)); err != nil {
		return err
	}
	if err := writeRawInt32Section(pw, tagOffsets, off); err != nil {
		return err
	}
	if err := writePad(pw, 4*len(tgt)); err != nil {
		return err
	}
	if err := writeRawInt32Section(pw, tagTargets, tgt); err != nil {
		return err
	}
	return writeSection(pw, tagEnd, nil)
}

func writeSnapshotHeader(w io.Writer, flags uint16) error {
	header := make([]byte, 0, 8)
	header = append(header, snapshotMagic...)
	header = binary.LittleEndian.AppendUint16(header, snapshotVersion)
	header = binary.LittleEndian.AppendUint16(header, flags)
	_, err := w.Write(header)
	return err
}

func metaPayload(meta SnapshotMeta, n, m int) []byte {
	p := make([]byte, 0, 32+len(meta.Name))
	p = binary.AppendUvarint(p, uint64(len(meta.Name)))
	p = append(p, meta.Name...)
	p = binary.AppendUvarint(p, meta.Epoch)
	p = binary.AppendUvarint(p, meta.CoveredLSN)
	p = binary.AppendUvarint(p, meta.Gen)
	p = binary.AppendUvarint(p, uint64(n))
	p = binary.AppendUvarint(p, uint64(m))
	return p
}

// positionWriter tracks the absolute file offset so writePad can align the
// next section's payload.
type positionWriter struct {
	w   io.Writer
	pos int64
}

func (p *positionWriter) Write(b []byte) (int, error) {
	n, err := p.w.Write(b)
	p.pos += int64(n)
	return n, err
}

// writePad emits one PAD section (zero payload, CRC framed like every other
// section) sized so that the NEXT section's payload — whose length is
// nextPayloadLen — will start at a file offset that is a multiple of
// rawAlign.  The pad length is the smallest solution, always < rawAlign+2.
func writePad(pw *positionWriter, nextPayloadLen int) error {
	for padLen := 0; ; padLen++ {
		end := pw.pos + int64(1+uvarintLen(uint64(padLen))+padLen+4) // pad section
		payloadStart := end + int64(1+uvarintLen(uint64(nextPayloadLen)))
		if payloadStart%rawAlign == 0 {
			return writeSection(pw, tagPad, make([]byte, padLen))
		}
	}
}

// writeRawInt32Section streams vals as little-endian int32s through a fixed
// scratch buffer, computing the section CRC incrementally.
func writeRawInt32Section(pw *positionWriter, tag byte, vals []int32) error {
	head := make([]byte, 0, 1+binary.MaxVarintLen64)
	head = append(head, tag)
	head = binary.AppendUvarint(head, uint64(4*len(vals)))
	if _, err := pw.Write(head); err != nil {
		return err
	}
	var scratch [64 * 1024]byte
	crc := uint32(0)
	for len(vals) > 0 {
		chunk := vals
		if len(chunk) > len(scratch)/4 {
			chunk = chunk[:len(scratch)/4]
		}
		buf := scratch[:4*len(chunk)]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		crc = crc32.Update(crc, crcTable, buf)
		if _, err := pw.Write(buf); err != nil {
			return err
		}
		vals = vals[len(chunk):]
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	_, err := pw.Write(tail[:])
	return err
}

func writeSection(w io.Writer, tag byte, payload []byte) error {
	head := make([]byte, 0, 1+binary.MaxVarintLen64)
	head = append(head, tag)
	head = binary.AppendUvarint(head, uint64(len(payload)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(crc[:])
	return err
}

// DecodeSnapshot reads one snapshot document of either variant and rebuilds
// its graph in freshly allocated arrays: raw payloads are copied, varint
// payloads decoded.  parseSnapshot verifies every section checksum before a
// payload is interpreted, and the rebuilt CSR arrays pass graph.FromCSR's
// structural validation, so a corrupted snapshot fails loudly instead of
// producing a broken graph.
func DecodeSnapshot(r io.Reader) (SnapshotMeta, *graph.Graph, error) {
	meta, g, _, err := decodeSnapshot(r)
	return meta, g, err
}

// decodeSnapshot is DecodeSnapshot that also reports whether the document
// is the raw-aligned variant.
func decodeSnapshot(r io.Reader) (SnapshotMeta, *graph.Graph, bool, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return SnapshotMeta{}, nil, false, err
	}
	s, err := parseSnapshot(data)
	if err != nil {
		return s.meta, nil, false, err
	}
	var off, tgt []int32
	if s.raw {
		off, tgt = decodeInt32LE(s.off), decodeInt32LE(s.tgt)
	} else if off, tgt, err = decodeVarintCSR(s); err != nil {
		return s.meta, nil, false, err
	}
	g, err := graph.FromCSR(off, tgt)
	if err != nil {
		return s.meta, nil, false, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return s.meta, g, s.raw, nil
}

// decodeVarintCSR rebuilds the CSR arrays from the varint OFFSETS (degrees)
// and TARGETS (first neighbor, then gaps) payloads.
func decodeVarintCSR(s parsedSnapshot) (off, tgt []int32, err error) {
	// Every degree and every target costs at least one payload byte, so
	// counts the payloads cannot hold are rejected before they size an
	// allocation.
	if uint64(len(s.off)) < s.n || uint64(len(s.tgt)) < 2*s.m {
		return nil, nil, fmt.Errorf("%w: counts n=%d m=%d exceed their sections", ErrBadSnapshot, s.n, s.m)
	}
	cur := payloadCursor{buf: s.off}
	off = make([]int32, s.n+1)
	total := uint64(0)
	for v := uint64(0); v < s.n; v++ {
		off[v] = int32(total)
		total += cur.uvarint()
		if total > math.MaxInt32 {
			return nil, nil, fmt.Errorf("%w: degrees overflow int32 offsets", ErrBadSnapshot)
		}
	}
	off[s.n] = int32(total)
	if cur.err != nil || cur.pos != len(s.off) {
		return nil, nil, fmt.Errorf("%w: malformed offsets section", ErrBadSnapshot)
	}
	if total != 2*s.m {
		return nil, nil, fmt.Errorf("%w: degrees sum to %d, want 2m=%d", ErrBadSnapshot, total, 2*s.m)
	}

	cur = payloadCursor{buf: s.tgt}
	tgt = make([]int32, total)
	for v := uint64(0); v < s.n; v++ {
		prev := uint64(0)
		for i := off[v]; i < off[v+1]; i++ {
			d := cur.uvarint()
			if i > off[v] {
				d += prev
			}
			if d > math.MaxInt32 {
				return nil, nil, fmt.Errorf("%w: target overflows int32", ErrBadSnapshot)
			}
			tgt[i] = int32(d)
			prev = d
		}
	}
	if cur.err != nil || cur.pos != len(s.tgt) {
		return nil, nil, fmt.Errorf("%w: malformed targets section", ErrBadSnapshot)
	}
	return off, tgt, nil
}

func decodeInt32LE(payload []byte) []int32 {
	out := make([]int32, len(payload)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out
}

// parsedSnapshot is one parsed snapshot document.  off and tgt are the
// OFFSETS and TARGETS payloads as subslices of the parsed bytes (zero-copy);
// offAt and tgtAt are where those payloads start in the parsed bytes.
type parsedSnapshot struct {
	meta         SnapshotMeta
	n, m         uint64
	raw          bool
	off, tgt     []byte
	offAt, tgtAt int
}

// parseSnapshot is the one reader of the snapshot container, for both
// variants and both callers (DecodeSnapshot over a read buffer,
// OpenMmapSnapshot over a mapping).  It checks the header, then walks the
// sections in their fixed order — META, OFFSETS, TARGETS, END — verifying
// each checksum before the payload is used and skipping PAD sections
// wherever they appear.  Raw payload sizes are checked against META's
// counts; interpreting varint payloads is left to decodeVarintCSR.  Bytes
// after END are corruption, like any other damage: every failure wraps
// ErrBadSnapshot.
func parseSnapshot(data []byte) (parsedSnapshot, error) {
	var s parsedSnapshot
	if len(data) < 8 {
		return s, fmt.Errorf("%w: short header", ErrBadSnapshot)
	}
	if string(data[:4]) != snapshotMagic {
		return s, fmt.Errorf("%w: magic %q", ErrBadSnapshot, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != snapshotVersion {
		return s, fmt.Errorf("%w %d (want %d)", ErrVersion, v, snapshotVersion)
	}
	flags := binary.LittleEndian.Uint16(data[6:8])
	if flags != 0 && flags != flagRawSections {
		// All other flag bits are reserved: a nonzero value means a future
		// writer relying on semantics this reader does not implement.
		return s, fmt.Errorf("%w: unsupported flags 0x%04x", ErrVersion, flags)
	}
	s.raw = flags == flagRawSections

	pos := 8
	// next returns the payload of the next non-PAD section, which must carry
	// wantTag, along with the payload's offset within data.
	next := func(wantTag byte) ([]byte, int, error) {
		for {
			if pos >= len(data) {
				return nil, 0, fmt.Errorf("%w: missing section 0x%02x", ErrBadSnapshot, wantTag)
			}
			tag := data[pos]
			pos++
			length, k := binary.Uvarint(data[pos:])
			if k <= 0 || length > math.MaxInt32 {
				return nil, 0, fmt.Errorf("%w: bad section length", ErrBadSnapshot)
			}
			pos += k
			if uint64(len(data)-pos) < length+4 {
				return nil, 0, fmt.Errorf("%w: truncated section payload", ErrBadSnapshot)
			}
			payloadAt := pos
			payload := data[pos : pos+int(length)]
			pos += int(length)
			want := binary.LittleEndian.Uint32(data[pos:])
			pos += 4
			if got := crc32.Checksum(payload, crcTable); got != want {
				return nil, 0, fmt.Errorf("%w: section 0x%02x checksum mismatch (got %08x, want %08x)", ErrBadSnapshot, tag, got, want)
			}
			if tag == tagPad {
				continue
			}
			if tag != wantTag {
				return nil, 0, fmt.Errorf("%w: section tag 0x%02x, want 0x%02x", ErrBadSnapshot, tag, wantTag)
			}
			return payload, payloadAt, nil
		}
	}

	mp, _, err := next(tagMeta)
	if err != nil {
		return s, err
	}
	cur := payloadCursor{buf: mp}
	nameLen := cur.uvarint()
	if nameLen > uint64(len(mp)) {
		return s, fmt.Errorf("%w: meta name length %d exceeds section", ErrBadSnapshot, nameLen)
	}
	s.meta.Name = string(cur.bytes(int(nameLen)))
	s.meta.Epoch = cur.uvarint()
	s.meta.CoveredLSN = cur.uvarint()
	s.meta.Gen = cur.uvarint()
	s.n = cur.uvarint()
	s.m = cur.uvarint()
	if cur.err != nil {
		return s, fmt.Errorf("%w: truncated meta section", ErrBadSnapshot)
	}
	if s.n > math.MaxInt32 || s.m > math.MaxInt32 {
		return s, fmt.Errorf("%w: unreasonable counts n=%d m=%d", ErrBadSnapshot, s.n, s.m)
	}

	if s.off, s.offAt, err = next(tagOffsets); err != nil {
		return s, err
	}
	if s.raw && uint64(len(s.off)) != 4*(s.n+1) {
		return s, fmt.Errorf("%w: raw offsets section is %d bytes, want %d", ErrBadSnapshot, len(s.off), 4*(s.n+1))
	}
	if s.tgt, s.tgtAt, err = next(tagTargets); err != nil {
		return s, err
	}
	if s.raw && uint64(len(s.tgt)) != 4*2*s.m {
		return s, fmt.Errorf("%w: raw targets section is %d bytes, want %d", ErrBadSnapshot, len(s.tgt), 4*2*s.m)
	}
	if _, _, err := next(tagEnd); err != nil {
		return s, err
	}
	if pos != len(data) {
		return s, fmt.Errorf("%w: %d trailing bytes after END section", ErrBadSnapshot, len(data)-pos)
	}
	return s, nil
}

// payloadCursor decodes uvarints from an in-memory, checksum-verified
// payload; the first malformed read latches err and poisons later reads.
type payloadCursor struct {
	buf []byte
	pos int
	err error
}

func (c *payloadCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, k := binary.Uvarint(c.buf[c.pos:])
	if k <= 0 {
		c.err = errors.New("truncated uvarint")
		return 0
	}
	c.pos += k
	return v
}

func (c *payloadCursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.pos+n > len(c.buf) {
		c.err = errors.New("truncated bytes")
		return nil
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b
}
