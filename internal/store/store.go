package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"bedom/internal/fault"
	"bedom/internal/graph"
)

// Directory layout of a store:
//
//	<dir>/LOCK                 advisory lock (one process per store)
//	<dir>/graphs/<key>.snap    one snapshot per registered graph
//	<dir>/wal-<firstLSN>.log   WAL segments; the highest-numbered is live
//
// Snapshot file names are derived from the graph name (hex for short names,
// a hash for long ones) but recovery never trusts them: the authoritative
// name lives in the snapshot's META section.  Open makes the segment named
// after the next LSN live: it reuses the final segment only when that one
// holds no record (its torn tail, if any, repaired first), and a segment
// name is a floor for the LSNs that follow, so the live segment always sorts
// last and a torn tail stays confined to the segment that was live at the
// crash.
const (
	graphsSubdir  = "graphs"
	snapExt       = ".snap"
	walPrefix     = "wal-"
	walExt        = ".log"
	lockFileName  = "LOCK"
	tmpFilePrefix = ".tmp-"
)

// ErrLocked is returned by Open when another live process holds the store.
var ErrLocked = errors.New("store: data directory is locked by another process")

// Options tunes a Store.
type Options struct {
	// NoSync disables fsync on WAL appends and snapshot writes.  Only for
	// benchmarks and tests — a crash can lose acknowledged writes.
	NoSync bool
	// Mmap serves raw-variant snapshots zero-copy during the Open scan: the
	// file is memory-mapped, checksum-verified, and its CSR arrays are
	// borrowed from the page cache instead of decoded (no allocation
	// proportional to m).  Varint-format files (written by older versions of
	// the store), unsupported platforms (32-bit, big-endian, no mmap) and
	// mapping failures fall back to the decoding path silently; real
	// corruption still fails loudly from either path.  Mappings stay open
	// until ReleaseMappings — see that method for the lifetime rules.
	// Ignored (never mapped) when FS is overridden: mmap needs a real file
	// descriptor, and routing reads around a fault injector would blind the
	// fault tests.
	Mmap bool
	// FS is the filesystem every file operation routes through (nil = the
	// real os-backed filesystem).  Tests swap in a fault.Injector; production
	// pays one interface call per op, nothing more.  The advisory directory
	// lock stays on the real filesystem regardless — flock needs a real fd.
	FS fault.FS
}

func (o Options) fs() fault.FS {
	if o.FS == nil {
		return fault.OS()
	}
	return o.FS
}

// Store is the on-disk persistence root: snapshot files plus the delta WAL.
// All methods are safe for concurrent use.
type Store struct {
	dir       string
	graphsDir string
	opts      Options
	fs        fault.FS
	lock      *dirLock

	// walMu guards the live-segment pointer: appenders hold it shared,
	// rotation (checkpoints) exclusively.
	walMu       sync.RWMutex
	wal         *wal
	walPath     string
	walFirstLSN uint64 // first LSN the live segment can hold

	// epochMu guards the registration-epoch counter.
	epochMu sync.Mutex
	epoch   uint64

	// Sealed-segment totals (live-segment counters are added on read).
	sealedRecords atomic.Uint64
	sealedBytes   atomic.Uint64
	sealedSyncs   atomic.Uint64

	snapshotsWritten atomic.Uint64
	snapshotBytes    atomic.Uint64
	snapshotFailures atomic.Uint64
	checkpoints      atomic.Uint64
	tmpSeq           atomic.Uint64

	recovered RecoveryStats

	// mapMu guards the open snapshot mappings (Options.Mmap recovery).
	mapMu    sync.Mutex
	mappings []*Mapping
}

// RecoveredGraph is one graph restored from a snapshot file.
type RecoveredGraph struct {
	Meta  SnapshotMeta
	Graph *graph.Graph
	// Raw reports whether the file is the raw-aligned variant SaveSnapshot
	// writes; a varint file, left by an older store, is due for a rewrite.
	Raw bool
}

// Recovery is what Open found on disk: the snapshots and the full ordered
// WAL.  The caller (the engine) filters records — a record applies to the
// recovered graph of the same name only when the epochs match and its LSN is
// beyond the snapshot's CoveredLSN.
type Recovery struct {
	// Graphs holds the decoded snapshots, sorted by name.
	Graphs []RecoveredGraph
	// Records holds every intact WAL record across all segments, in LSN
	// order.
	Records []Record
	// TruncatedBytes counts WAL bytes dropped as torn tails (a crash mid
	// append; never an acknowledged record).
	TruncatedBytes int64
}

// RecoveryStats summarizes the Open-time scan for the stats surface.
type RecoveryStats struct {
	Graphs         int   `json:"graphs"`
	WALRecords     int   `json:"wal_records"`
	TruncatedBytes int64 `json:"truncated_bytes"`
	// MmapGraphs counts recovered graphs served zero-copy from a memory
	// mapping (always ≤ Graphs; 0 when Options.Mmap is off or every snapshot
	// fell back to the decoding path).
	MmapGraphs int `json:"mmap_graphs"`
	// MmapBytes is the total mapped snapshot size backing those graphs.
	MmapBytes int64 `json:"mmap_bytes"`
}

// Open attaches to (creating if needed) the store rooted at dir, scans its
// snapshots and WAL segments, and starts a fresh live segment.  The returned
// Recovery holds everything needed to rebuild engine state; the Store is
// ready for appends.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	graphsDir := filepath.Join(dir, graphsSubdir)
	fs := opts.fs()
	if err := fs.MkdirAll(graphsDir, 0o755); err != nil {
		return nil, nil, err
	}
	lock, err := acquireDirLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, graphsDir: graphsDir, opts: opts, fs: fs, lock: lock}

	rec, lastLSN, maxEpoch, err := s.scan()
	if err != nil {
		lock.release()
		return nil, nil, err
	}
	s.epoch = maxEpoch
	// Mmap counters were accumulated by loadSnapshot during the scan.
	s.recovered.Graphs = len(rec.Graphs)
	s.recovered.WALRecords = len(rec.Records)
	s.recovered.TruncatedBytes = rec.TruncatedBytes
	if err := s.openLiveSegment(lastLSN); err != nil {
		lock.release()
		return nil, nil, err
	}
	return s, rec, nil
}

// scan loads every snapshot and replays every WAL segment in order.
func (s *Store) scan() (*Recovery, uint64, uint64, error) {
	rec := &Recovery{}
	var lastLSN, maxEpoch uint64

	snapEntries, err := s.fs.ReadDir(s.graphsDir)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, ent := range snapEntries {
		name := ent.Name()
		if strings.HasPrefix(name, tmpFilePrefix) {
			// A checkpoint died between write and rename; the final file (if
			// any) is the authoritative snapshot.
			_ = s.fs.Remove(filepath.Join(s.graphsDir, name))
			continue
		}
		if !strings.HasSuffix(name, snapExt) {
			continue
		}
		path := filepath.Join(s.graphsDir, name)
		meta, g, raw, err := s.loadSnapshot(path)
		if err != nil {
			// A snapshot either renamed into place completely or not at all,
			// so corruption here is real data damage — fail loudly instead of
			// silently dropping a graph.
			return nil, 0, 0, fmt.Errorf("store: snapshot %s: %w", path, err)
		}
		rec.Graphs = append(rec.Graphs, RecoveredGraph{Meta: meta, Graph: g, Raw: raw})
		if meta.CoveredLSN > lastLSN {
			lastLSN = meta.CoveredLSN
		}
		if meta.Epoch > maxEpoch {
			maxEpoch = meta.Epoch
		}
	}
	sort.Slice(rec.Graphs, func(i, j int) bool { return rec.Graphs[i].Meta.Name < rec.Graphs[j].Meta.Name })

	segs, err := s.segmentPaths()
	if err != nil {
		return nil, 0, 0, err
	}
	for i, seg := range segs {
		// A segment's name holds its first LSN, so every LSN below it was
		// assigned, even when no surviving record or snapshot shows one (a
		// checkpoint removed its segment, or a failed segment was cut back).
		// The floor keeps LSNs unique and the live segment last in name order.
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(seg), walPrefix), walExt), 10, 64)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("store: segment %s: name holds no first LSN: %w", seg, err)
		}
		if first > lastLSN+1 {
			lastLSN = first - 1
		}
		records, truncated, err := readSegment(s.fs, seg)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("store: segment %s: %w", seg, err)
		}
		if truncated > 0 {
			// A torn tail is legitimate ONLY in the final segment — the one
			// live at the crash.  Every earlier segment was sealed with an
			// fsync, a failed one after it was cut back to its durable
			// prefix (or already repaired by a previous Open before a newer
			// segment was created), so unreadable bytes there mean real,
			// acknowledged records were damaged: fail loudly like snapshot
			// corruption, never silently truncate acked history.
			if i != len(segs)-1 {
				return nil, 0, 0, fmt.Errorf("store: sealed segment %s is corrupt (%d unreadable bytes mid-log)", seg, truncated)
			}
			// Repair the final segment's torn tail now: openLiveSegment may
			// reuse this very file (O_APPEND) when the crash happened before
			// any record was acknowledged, and appending after unreadable
			// garbage would make the new — acknowledged — records
			// unreachable at the next recovery.  Truncating to the intact
			// prefix loses nothing: a torn suffix was never acked.
			st, serr := s.fs.Stat(seg)
			if serr != nil {
				return nil, 0, 0, serr
			}
			if terr := s.fs.Truncate(seg, st.Size()-truncated); terr != nil {
				return nil, 0, 0, fmt.Errorf("store: repairing torn segment %s: %w", seg, terr)
			}
		}
		rec.Records = append(rec.Records, records...)
		rec.TruncatedBytes += truncated
	}
	// Segments are scanned in firstLSN order, so records are already LSN
	// sorted; verify monotonicity anyway — replaying out of order would
	// corrupt topologies silently.
	for i := 1; i < len(rec.Records); i++ {
		if rec.Records[i].LSN <= rec.Records[i-1].LSN {
			return nil, 0, 0, fmt.Errorf("store: WAL records out of order (LSN %d after %d)",
				rec.Records[i].LSN, rec.Records[i-1].LSN)
		}
	}
	for _, r := range rec.Records {
		if r.LSN > lastLSN {
			lastLSN = r.LSN
		}
		if r.Epoch > maxEpoch {
			maxEpoch = r.Epoch
		}
	}
	return rec, lastLSN, maxEpoch, nil
}

// loadSnapshot opens one snapshot file, zero-copy when the store is
// configured for it and the file cooperates, decoding otherwise, and
// reports whether the file is the raw-aligned variant.  Only
// ErrNotMmapable (a varint file, a misaligned payload, a failed mapping)
// falls back to the decoder; ErrBadSnapshot from the mmap path fails
// recovery, exactly as the decoder would have.
func (s *Store) loadSnapshot(path string) (SnapshotMeta, *graph.Graph, bool, error) {
	if s.opts.Mmap && s.opts.FS == nil && MmapSupported() {
		meta, g, m, err := OpenMmapSnapshot(path)
		if err == nil {
			s.mapMu.Lock()
			s.mappings = append(s.mappings, m)
			s.mapMu.Unlock()
			s.recovered.MmapGraphs++
			s.recovered.MmapBytes += m.Size()
			return meta, g, true, nil
		}
		if !errors.Is(err, ErrNotMmapable) {
			return meta, nil, false, err
		}
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return SnapshotMeta{}, nil, false, err
	}
	defer f.Close()
	return decodeSnapshot(f)
}

// ReleaseMappings unmaps every snapshot mapping the Open scan created.  Any
// graph recovered zero-copy must not be used afterwards — its CSR arrays
// live in the mapped region.  Callers sequence it strictly after the last
// reader is drained (the engine calls it at the very end of Close, after the
// worker pool has stopped); Close itself does NOT unmap, so the common
// seal-then-drain shutdown order stays safe by default.
func (s *Store) ReleaseMappings() error {
	s.mapMu.Lock()
	maps := s.mappings
	s.mappings = nil
	s.mapMu.Unlock()
	var first error
	for _, m := range maps {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// segmentPaths lists the WAL segment files in firstLSN (= lexicographic,
// zero-padded) order.
func (s *Store) segmentPaths() ([]string, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walExt) {
			segs = append(segs, filepath.Join(s.dir, name))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%s%020d%s", walPrefix, firstLSN, walExt)
}

// openLiveSegment starts the segment that will hold LSNs > lastLSN.
func (s *Store) openLiveSegment(lastLSN uint64) error {
	path := filepath.Join(s.dir, segmentName(lastLSN+1))
	w, err := openWAL(s.fs, path, lastLSN, s.opts)
	if err != nil {
		return err
	}
	s.wal, s.walPath, s.walFirstLSN = w, path, lastLSN+1
	return s.syncDir(s.dir)
}

// NextEpoch returns a fresh registration epoch (strictly greater than every
// epoch ever persisted by this store).
func (s *Store) NextEpoch() uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	s.epoch++
	return s.epoch
}

// LastLSN returns the LSN of the most recently appended record (0 if none
// ever).
func (s *Store) LastLSN() uint64 {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.lsn
}

// AppendDelta tees one applied delta into the WAL; it returns the record's
// LSN once the record is durable (group-commit fsync).  gen is the cache
// generation the engine assigned to the mutation (restored verbatim at
// replay).
func (s *Store) AppendDelta(name string, epoch, gen uint64, delta graph.Delta) (uint64, error) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	return s.wal.append(epoch, gen, name, delta)
}

// SaveSnapshot persists one graph snapshot atomically: encode to a temp
// file, fsync, rename into place, fsync the directory.  A crash leaves
// either the old snapshot or the new one, never a torn file under the final
// name.  The file is always the raw-aligned variant (EncodeSnapshotRaw), so
// the next Open can map it; it replaces a varint file of the same graph
// left by an older store.
func (s *Store) SaveSnapshot(meta SnapshotMeta, g *graph.Graph) error {
	final := filepath.Join(s.graphsDir, snapFileName(meta.Name))
	// The sequence number keeps concurrent saves of the same graph on
	// distinct temp files; their renames then serialize (last one wins).
	tmp := filepath.Join(s.graphsDir, fmt.Sprintf("%s%d-%s", tmpFilePrefix, s.tmpSeq.Add(1), filepath.Base(final)))
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		s.snapshotFailures.Add(1)
		return err
	}
	cw := &countingWriter{w: f}
	err = EncodeSnapshotRaw(cw, meta, g)
	if err == nil && !s.opts.NoSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, final)
	}
	if err != nil {
		// The final name was never touched: either the temp write failed or
		// the rename did, and a rename is atomic — the previous snapshot (if
		// any) is still intact under the final name.
		_ = s.fs.Remove(tmp)
		s.snapshotFailures.Add(1)
		return err
	}
	s.snapshotsWritten.Add(1)
	s.snapshotBytes.Add(uint64(cw.n))
	return s.syncDir(s.graphsDir)
}

// DeleteSnapshot removes the snapshot of name (a no-op if absent).
func (s *Store) DeleteSnapshot(name string) error {
	err := s.fs.Remove(filepath.Join(s.graphsDir, snapFileName(name)))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return s.syncDir(s.graphsDir)
}

// RotateWAL seals the live segment and starts a fresh one, returning the
// paths of the now-obsolete segments (every sealed segment).  The caller
// must re-snapshot all graphs before passing the list to RemoveSegments —
// that order is what makes a crash mid-checkpoint safe: until the old
// segments are removed, recovery still replays them.  A live segment with no
// records is reused rather than rotated (no LSN advanced, nothing to seal).
func (s *Store) RotateWAL() ([]string, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.wal.mu.Lock()
	lastLSN := s.wal.lsn
	s.wal.mu.Unlock()
	if lastLSN+1 == s.walFirstLSN {
		// Nothing was ever appended to the live segment; everything sealed
		// is still obsolete once the caller re-snapshots.
		segs, err := s.segmentPaths()
		if err != nil {
			return nil, err
		}
		return removeString(segs, s.walPath), nil
	}
	if err := s.wal.seal(); err != nil {
		return nil, err
	}
	s.sealedRecords.Add(s.wal.records.Load())
	s.sealedBytes.Add(s.wal.bytes.Load())
	s.sealedSyncs.Add(s.wal.syncs.Load())
	if err := s.openLiveSegment(lastLSN); err != nil {
		return nil, err
	}
	segs, err := s.segmentPaths()
	if err != nil {
		return nil, err
	}
	return removeString(segs, s.walPath), nil
}

// RemoveSegments deletes obsolete WAL segments (the completion step of a
// checkpoint) and counts the checkpoint.
func (s *Store) RemoveSegments(paths []string) error {
	for _, p := range paths {
		if err := s.fs.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	s.checkpoints.Add(1)
	return s.syncDir(s.dir)
}

// Close seals the live WAL segment (flushing and fsyncing any buffered
// records) and releases the directory lock.  It does NOT checkpoint — a
// closed-but-not-checkpointed store recovers by replay, identically to a
// crash after the last acknowledged append.
func (s *Store) Close() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	err := s.wal.seal()
	if err != nil {
		// A failed seal leaves the segment open (so rotation can be retried);
		// Close is terminal, so release the descriptor regardless.
		s.wal.forceClose()
	}
	s.lock.release()
	return err
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Dir is the data directory path.
	Dir string `json:"dir"`
	// WALRecords / WALBytes / WALSyncs total appended records, framed bytes
	// and fsync batches across all segments of this process lifetime.
	WALRecords uint64 `json:"wal_records"`
	WALBytes   uint64 `json:"wal_bytes"`
	WALSyncs   uint64 `json:"wal_syncs"`
	// LastLSN is the most recently appended record's LSN.
	LastLSN uint64 `json:"last_lsn"`
	// SnapshotsWritten / SnapshotBytes count snapshot files written
	// (registrations and checkpoints).
	SnapshotsWritten uint64 `json:"snapshots_written"`
	SnapshotBytes    uint64 `json:"snapshot_bytes"`
	// SnapshotFailures counts snapshot writes that failed (the previous
	// snapshot, if any, stayed intact under the final name).
	SnapshotFailures uint64 `json:"snapshot_failures"`
	// Checkpoints counts completed checkpoint cycles.
	Checkpoints uint64 `json:"checkpoints"`
	// Recovered describes what Open found on disk.
	Recovered RecoveryStats `json:"recovered"`
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.walMu.RLock()
	live := s.wal
	s.walMu.RUnlock()
	live.mu.Lock()
	lastLSN := live.lsn
	live.mu.Unlock()
	return Stats{
		Dir:              s.dir,
		WALRecords:       s.sealedRecords.Load() + live.records.Load(),
		WALBytes:         s.sealedBytes.Load() + live.bytes.Load(),
		WALSyncs:         s.sealedSyncs.Load() + live.syncs.Load(),
		LastLSN:          lastLSN,
		SnapshotsWritten: s.snapshotsWritten.Load(),
		SnapshotBytes:    s.snapshotBytes.Load(),
		SnapshotFailures: s.snapshotFailures.Load(),
		Checkpoints:      s.checkpoints.Load(),
		Recovered:        s.recovered,
	}
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func (s *Store) syncDir(dir string) error {
	if s.opts.NoSync {
		return nil
	}
	d, err := s.fs.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapFileName maps a graph name to its snapshot file: hex of the name when
// short enough for a portable file name, otherwise a SHA-256 digest.  The
// name inside the file's META section stays authoritative either way.
func snapFileName(name string) string {
	if len(name) <= 100 {
		return hex.EncodeToString([]byte(name)) + snapExt
	}
	sum := sha256.Sum256([]byte(name))
	return "h-" + hex.EncodeToString(sum[:]) + snapExt
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func removeString(list []string, drop string) []string {
	out := list[:0]
	for _, s := range list {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}
