package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"bedom/internal/fault"
	"bedom/internal/graph"
)

// Record is one WAL entry: a delta applied to a named graph registration.
//
// On-disk layout (little-endian, LEB128 varints):
//
//	record  := length (uvarint, payload bytes) | payload | crc uint32
//	payload := lsn | epoch | gen | name length | name bytes | add_vertices |
//	           #add | #add × (u, v) | #remove | #remove × (u, v)
//
// The CRC-32C covers the payload only; the length prefix is implicitly
// verified by the checksum failing when it lies.  A torn tail (crash mid
// write) therefore surfaces as a short payload or a checksum mismatch, and
// replay stops at the last intact record — exactly the acked-prefix
// semantics group commit guarantees (every acknowledged append was fsynced,
// so only unacknowledged suffixes can be lost).
type Record struct {
	// LSN is the record's log sequence number: strictly increasing across
	// the store's lifetime, never reused across segments.
	LSN uint64
	// Epoch is the graph registration the delta was applied under (see
	// SnapshotMeta.Epoch).
	Epoch uint64
	// Gen is the cache generation the engine assigned to this mutation;
	// replay restores it verbatim, keeping /stats generations continuous
	// across restarts for any register/mutate interleaving.
	Gen uint64
	// Graph is the engine registry name.
	Graph string
	// Delta is the applied mutation batch.
	Delta graph.Delta
}

// wal is one live append-only segment file with group-commit fsync batching:
// concurrent appenders write their records under mu (cheap, buffered), then
// queue on syncMu; the first through becomes the batch leader and fsyncs
// everything written so far, and the followers observe their LSN already
// durable and return without a second fsync.  Under k concurrent writers one
// fsync acknowledges up to k records.
//
// The first failed write, flush or fsync fails the segment.  No later fsync
// can vouch for the records past its durable prefix: the kernel reports a
// failed writeback once per open file and may drop the pages it could not
// write, and bufio.Writer keeps its first error.  So every later append, and
// every sync of a record that is not already durable, returns that first
// error, and seal cuts the file back to the durable prefix.
type wal struct {
	nosync bool
	fs     fault.FS
	path   string

	mu     sync.Mutex // serializes buffered writes, LSN assignment and failed
	f      fault.File
	bw     *bufio.Writer
	lsn    uint64 // last assigned LSN
	end    int64  // file offset past the last appended record
	failed error  // the first failed write, flush or fsync

	syncMu  sync.Mutex // serializes fsync batches
	synced  uint64     // last LSN known durable (under syncMu)
	durable int64      // file offset where the durable records end (under syncMu)

	records atomic.Uint64
	bytes   atomic.Uint64
	syncs   atomic.Uint64
}

// openWAL opens (creating if absent) a segment for appending, continuing the
// LSN sequence after lastLSN.  A nil fs means the real filesystem.  A reused
// segment file is durable up to its current size.
func openWAL(fs fault.FS, path string, lastLSN uint64, opts Options) (*wal, error) {
	if fs == nil {
		fs = fault.OS()
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{
		nosync:  opts.NoSync,
		fs:      fs,
		path:    path,
		f:       f,
		bw:      bufio.NewWriter(f),
		lsn:     lastLSN,
		end:     size,
		synced:  lastLSN,
		durable: size,
	}, nil
}

// append encodes one record, assigns it the next LSN and returns once the
// record is durable (fsynced, possibly by a concurrent appender's batch).  On
// a failed segment it returns the first failure and assigns no LSN.
func (w *wal) append(epoch, gen uint64, name string, delta graph.Delta) (uint64, error) {
	w.mu.Lock()
	if err := w.failed; err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.lsn++
	lsn := w.lsn
	payload := encodeRecordPayload(nil, Record{LSN: lsn, Epoch: epoch, Gen: gen, Graph: name, Delta: delta})
	head := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64), uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	_, err := w.bw.Write(head)
	if err == nil {
		_, err = w.bw.Write(payload)
	}
	if err == nil {
		_, err = w.bw.Write(crc[:])
	}
	framed := len(head) + len(payload) + 4
	w.end += int64(framed)
	w.failed = err
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	w.records.Add(1)
	w.bytes.Add(uint64(framed))
	return lsn, w.sync(lsn)
}

// sync makes every record up to lsn durable, batching with concurrent
// appenders (see the type comment).  A record the segment's durable prefix
// does not hold gets the segment's first failure.
func (w *wal) sync(lsn uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= lsn {
		return nil // a previous batch leader's fsync covered this record
	}
	w.mu.Lock()
	if w.failed == nil {
		w.failed = w.bw.Flush()
	}
	err, target, end := w.failed, w.lsn, w.end
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if !w.nosync {
		if err := w.f.Sync(); err != nil {
			w.mu.Lock()
			if w.failed == nil {
				w.failed = err
			}
			w.mu.Unlock()
			return err
		}
		w.syncs.Add(1)
	}
	w.synced, w.durable = target, end
	return nil
}

// seal ends the segment and closes it.  A healthy segment is flushed and
// fsynced; a failed one (or one whose final flush or fsync fails) drops its
// buffer and is cut back to its durable prefix, then fsynced, so the bytes of
// records no fsync vouched for never reach a sealed segment.  On error the
// segment is left open and live, so sealing can be retried: checkpointing
// again is the degraded engine's recovery path.
func (w *wal) seal() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == nil {
		w.failed = w.bw.Flush()
		if w.failed == nil && !w.nosync {
			w.failed = w.f.Sync()
		}
		if w.failed == nil {
			w.synced = w.lsn
			return w.f.Close()
		}
	}
	if err := w.fs.Truncate(w.path, w.durable); err != nil {
		return err
	}
	if !w.nosync {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	return w.f.Close()
}

// forceClose releases the segment descriptor unconditionally.  Terminal
// shutdown only: after a failed seal the segment is deliberately left open so
// rotation can be retried, but Close must not leak the descriptor.
func (w *wal) forceClose() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// encodeRecordPayload appends the record's payload encoding to buf.
func encodeRecordPayload(buf []byte, r Record) []byte {
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = binary.AppendUvarint(buf, r.Epoch)
	buf = binary.AppendUvarint(buf, r.Gen)
	buf = binary.AppendUvarint(buf, uint64(len(r.Graph)))
	buf = append(buf, r.Graph...)
	buf = binary.AppendUvarint(buf, uint64(r.Delta.AddVertices))
	buf = binary.AppendUvarint(buf, uint64(len(r.Delta.Add)))
	for _, e := range r.Delta.Add {
		buf = binary.AppendUvarint(buf, uint64(e[0]))
		buf = binary.AppendUvarint(buf, uint64(e[1]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Delta.Remove)))
	for _, e := range r.Delta.Remove {
		buf = binary.AppendUvarint(buf, uint64(e[0]))
		buf = binary.AppendUvarint(buf, uint64(e[1]))
	}
	return buf
}

// decodeRecordPayload parses one checksum-verified record payload.
func decodeRecordPayload(payload []byte) (Record, error) {
	var r Record
	cur := payloadCursor{buf: payload}
	r.LSN = cur.uvarint()
	r.Epoch = cur.uvarint()
	r.Gen = cur.uvarint()
	nameLen := cur.uvarint()
	if nameLen > uint64(len(payload)) {
		return r, errors.New("store: record name length exceeds payload")
	}
	r.Graph = string(cur.bytes(int(nameLen)))
	av := cur.uvarint()
	nAdd := cur.uvarint()
	// Each edge costs ≥ 2 payload bytes (two uvarints), so a claimed count
	// beyond len/2 is garbage; reject before allocating 16 bytes per
	// claimed entry.  AddVertices is bounded by the CSR int32 ceiling the
	// graph layer enforces (also keeps int(av) safe on 32-bit platforms).
	if av > math.MaxInt32 || nAdd > uint64(len(payload))/2 {
		return r, errors.New("store: unreasonable record counts")
	}
	r.Delta.AddVertices = int(av)
	if nAdd > 0 {
		r.Delta.Add = make([][2]int, nAdd)
		for i := range r.Delta.Add {
			r.Delta.Add[i] = [2]int{int(cur.uvarint()), int(cur.uvarint())}
		}
	}
	nRem := cur.uvarint()
	if nRem > uint64(len(payload))/2 {
		return r, errors.New("store: unreasonable record counts")
	}
	if nRem > 0 {
		r.Delta.Remove = make([][2]int, nRem)
		for i := range r.Delta.Remove {
			r.Delta.Remove[i] = [2]int{int(cur.uvarint()), int(cur.uvarint())}
		}
	}
	if cur.err != nil || cur.pos != len(payload) {
		return r, errors.New("store: malformed record payload")
	}
	return r, nil
}

// readSegment replays one segment file: every intact record in order.  A
// torn tail — short length prefix, short payload, or checksum mismatch —
// ends the scan and is reported via truncated (the unreadable byte count),
// matching what a crash mid-append leaves behind.  Records after a torn
// region in the same segment are unreachable by design: group commit never
// acknowledged them (an acked record is fsynced before any later record is
// written), so dropping the suffix loses no acknowledged delta.
func readSegment(fs fault.FS, path string) (records []Record, truncated int64, err error) {
	if fs == nil {
		fs = fault.OS()
	}
	f, err := fs.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	consumed := int64(0)
	for {
		rec, n, rerr := readRecord(br)
		if rerr == io.EOF {
			return records, 0, nil
		}
		if rerr != nil {
			// Torn tail: keep the intact prefix, report the rest.
			return records, size - consumed, nil
		}
		consumed += n
		records = append(records, rec)
	}
}

// readRecord reads one framed record; io.EOF means a clean end of segment,
// any other error a torn or corrupt record.
func readRecord(br *bufio.Reader) (Record, int64, error) {
	length, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, err
	}
	if length > uint64(1)<<31 {
		return Record{}, 0, fmt.Errorf("store: record length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Record{}, 0, fmt.Errorf("store: short record payload: %w", err)
	}
	var crcBytes [4]byte
	if _, err := io.ReadFull(br, crcBytes[:]); err != nil {
		return Record{}, 0, fmt.Errorf("store: missing record checksum: %w", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crcBytes[:]); got != want {
		return Record{}, 0, fmt.Errorf("store: record checksum mismatch (got %08x, want %08x)", got, want)
	}
	rec, err := decodeRecordPayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	framed := int64(uvarintLen(length)) + int64(length) + 4
	return rec, framed, nil
}

// uvarintLen returns the encoded byte length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
