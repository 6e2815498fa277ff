// Package store is the durability layer under the rbq facade: a
// checksummed write-ahead log of op batches plus base snapshot images,
// with recovery that loads the last good image and replays the WAL
// tail.
//
// # On-disk layout
//
// A store directory holds two files (plus transient .tmp siblings):
//
//	wal.log   "RBQW" u32 version, then records:
//	          u32 payloadLen | u32 CRC32C(payload) | payload
//	          payload := u64 seq | delta.EncodeOps(batch)
//	base.img  "RBQB" u32 version u64 seq u32 CRC32C(first 16 bytes),
//	          then an RBQ1 graph file (dataset.WriteBinary),
//	          then u32 CRC32C(the graph file)
//
// The base image holds the graph and nothing derived from it: recovery
// decodes it with dataset.ReadBinary, the decoder a fresh start runs on
// a -graph file, and the caller builds the Aux from the result. Labels
// come back numbered by first use, and a label no node carries is not
// kept; WAL ops name labels rather than number them, so replay does not
// depend on the ids.
//
// Batch sequence numbers start at 1 and increase by exactly 1 per
// record across the store's whole life; the base image records the seq
// it folds. Replay skips WAL records with seq ≤ the base's (they are
// already folded) — that one rule is what makes the compaction protocol
// crash-safe at every intermediate state.
//
// # Compaction protocol
//
// WriteBase persists a compacted snapshot as: write base.img.tmp, fsync
// it, rename onto base.img, fsync the directory — the atomic-rename
// idiom — and only then swaps in an empty wal.log the same way (fresh
// tmp, fsync, rename, fsync dir). A crash between the two steps leaves
// the new base with the old WAL, which replay handles by seq-skipping;
// a crash earlier leaves the old base with the full WAL. No state is
// unrecoverable.
//
// # Torn-tail truncation
//
// Recovery scans the WAL record by record and stops at the first torn
// (short) or corrupt (checksum, malformed payload, out-of-order seq)
// record, truncating the file there instead of failing the open: a torn
// tail is the expected debris of a crash mid-append, and everything
// before it is intact by CRC. What was dropped is surfaced in
// RecoveryStats, never silently. The rule deliberately favors
// availability: a corrupt record in the *middle* of the log (media
// damage, not a torn append) also truncates there, dropping the
// records behind it — those are unreadable anyway without trusting
// arbitrary framing after the damage.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"

	"rbq/internal/dataset"
	"rbq/internal/delta"
	"rbq/internal/graph"
)

const (
	walName = "wal.log"
	walTmp  = "wal.log.tmp"
	// walHeaderLen is magic + u32 version.
	walHeaderLen = 8
	walMagic     = "RBQW"
	walVersion   = 1
	// maxRecordLen bounds one record's payload; larger is corruption.
	maxRecordLen = 1 << 30

	baseName = "base.img"
	baseTmp  = "base.img.tmp"
	// basePrologueLen is magic + u32 version + u64 seq + u32 crc.
	basePrologueLen = 20
	baseMagic       = "RBQB"
	baseVersion     = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when the WAL is fsync'd.
type SyncPolicy int

const (
	// SyncBatch fsyncs after every appended batch: an acked Apply is
	// durable against power loss. The default.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs on append (only on Close and compaction).
	// An OS crash may drop acked batches from the WAL tail; recovery
	// still sees a clean prefix.
	SyncNone
)

// Options configures Open.
type Options struct {
	Sync SyncPolicy
	// FS overrides the filesystem (fault-injection tests); nil = OSFS.
	FS FS
}

// RecoveryStats reports what Open found and what, if anything, it had
// to drop. Dropping is never silent: a torn or corrupt WAL tail is
// truncated and accounted here.
type RecoveryStats struct {
	// FreshDir is set when the directory held no base image and no WAL.
	FreshDir bool
	// BaseSeq is the batch seq folded into the loaded base image (0 for
	// a fresh store).
	BaseSeq uint64
	// TailBatches/TailOps count the WAL records replayed over the base.
	TailBatches int
	TailOps     int
	// SkippedRecords counts WAL records already folded into the base
	// (seq ≤ BaseSeq) — debris of a crash between the two compaction
	// renames.
	SkippedRecords int
	// Truncated is set when the WAL tail was cut at a torn or corrupt
	// record; DroppedBytes is how much was discarded.
	Truncated    bool
	DroppedBytes int64
}

// Batch is one recovered WAL record: a batch of ops acked under seq.
type Batch struct {
	Seq uint64
	Ops []delta.Op

	off int64 // record's byte offset in wal.log
	len int64 // record's framed length
}

// ErrStoreClosed is returned by operations on a closed store.
var ErrStoreClosed = errors.New("store: closed")

// Store is an open store directory: the WAL append handle plus the
// recovered state. A Store is owned by one writer (the facade holds its
// mutation mutex across every call); it is not internally synchronized.
type Store struct {
	dir  string
	fsys FS
	sync SyncPolicy

	w       File  // wal.log append handle
	walSize int64 // current wal.log length
	lastSeq uint64
	baseSeq uint64

	baseG *graph.Graph
	tail  []Batch
	stats RecoveryStats

	buf    []byte // record scratch, reused across Appends
	broken error  // first write-path error; the store refuses further writes
	closed bool
}

// Open opens (or initializes) a store directory, recovering the last
// good base image and the WAL tail. A torn or corrupt WAL tail is
// truncated (see RecoveryStats); a damaged base image is a hard error —
// it is the ground truth and nothing can reconstruct it.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, fsys: fsys, sync: opts.Sync}
	// Clear crash debris: a .tmp that never got renamed is garbage.
	for _, tmp := range []string{baseTmp, walTmp} {
		if _, err := fsys.Stat(filepath.Join(dir, tmp)); err == nil {
			if err := fsys.Remove(filepath.Join(dir, tmp)); err != nil {
				return nil, fmt.Errorf("store: open %s: clear %s: %w", dir, tmp, err)
			}
		}
	}
	if err := s.loadBase(); err != nil {
		return nil, err
	}
	if err := s.recoverWAL(); err != nil {
		return nil, err
	}
	s.stats.FreshDir = s.baseG == nil && s.lastSeq == 0 && !s.stats.Truncated && s.stats.DroppedBytes == 0
	s.stats.BaseSeq = s.baseSeq
	s.stats.TailBatches = len(s.tail)
	for _, b := range s.tail {
		s.stats.TailOps += len(b.Ops)
	}
	return s, nil
}

// loadBase reads and decodes base.img if present.
func (s *Store) loadBase() error {
	path := filepath.Join(s.dir, baseName)
	data, err := s.fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read %s: %w", baseName, err)
	}
	if len(data) < basePrologueLen {
		return fmt.Errorf("store: %s: truncated prologue (%d bytes)", baseName, len(data))
	}
	if string(data[:4]) != baseMagic {
		return fmt.Errorf("store: %s: bad magic %q", baseName, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != baseVersion {
		return fmt.Errorf("store: %s: unsupported version %d", baseName, v)
	}
	seq := binary.LittleEndian.Uint64(data[8:])
	if crc := binary.LittleEndian.Uint32(data[16:]); crc != crc32.Checksum(data[:16], castagnoli) {
		return fmt.Errorf("store: %s: prologue checksum mismatch", baseName)
	}
	body := data[basePrologueLen:]
	if len(body) < 4 {
		return fmt.Errorf("store: %s: truncated graph (%d bytes)", baseName, len(body))
	}
	body, trailer := body[:len(body)-4], body[len(body)-4:]
	if binary.LittleEndian.Uint32(trailer) != crc32.Checksum(body, castagnoli) {
		return fmt.Errorf("store: %s: graph checksum mismatch", baseName)
	}
	g, err := dataset.ReadBinary(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("store: %s: %w", baseName, err)
	}
	s.baseG, s.baseSeq = g, seq
	s.lastSeq = seq
	return nil
}

// recoverWAL scans wal.log, collects the replayable tail, truncates any
// torn/corrupt suffix, and leaves s.w as the open append handle.
func (s *Store) recoverWAL() error {
	path := filepath.Join(s.dir, walName)
	data, err := s.fsys.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := s.writeFreshWAL(walName); err != nil {
			return err
		}
		data = nil
	case err != nil:
		return fmt.Errorf("store: read %s: %w", walName, err)
	case len(data) < walHeaderLen:
		// A crash during initial creation tore the header; no record can
		// exist, so rewrite it.
		s.stats.Truncated = true
		s.stats.DroppedBytes = int64(len(data))
		if err := s.writeFreshWAL(walName); err != nil {
			return err
		}
		data = nil
	default:
		if string(data[:4]) != walMagic {
			return fmt.Errorf("store: %s: bad magic %q", walName, data[:4])
		}
		if v := binary.LittleEndian.Uint32(data[4:]); v != walVersion {
			return fmt.Errorf("store: %s: unsupported version %d", walName, v)
		}
	}
	good := int64(walHeaderLen)
	if data != nil {
		good = s.scanRecords(data)
		if good < int64(len(data)) {
			s.stats.Truncated = true
			s.stats.DroppedBytes += int64(len(data)) - good
			if err := s.fsys.Truncate(path, good); err != nil {
				return fmt.Errorf("store: repair %s: %w", walName, err)
			}
		}
	}
	s.walSize = good
	w, err := s.fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", walName, err)
	}
	s.w = w
	if s.stats.Truncated {
		// Make the repair durable before anything is appended after it.
		if err := w.Sync(); err != nil {
			w.Close()
			return fmt.Errorf("store: sync repaired %s: %w", walName, err)
		}
	}
	return nil
}

// scanRecords walks the framed records in data, filling s.tail and
// s.lastSeq, and returns the offset of the first byte that is not part
// of a fully valid record ( = len(data) when the log is clean).
func (s *Store) scanRecords(data []byte) int64 {
	off := int64(walHeaderLen)
	prev := uint64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < 8 {
			return off // torn frame header
		}
		plen := binary.LittleEndian.Uint32(rest)
		want := binary.LittleEndian.Uint32(rest[4:])
		if plen < 8 || plen > maxRecordLen || uint64(len(rest)-8) < uint64(plen) {
			return off // absurd length or torn payload
		}
		payload := rest[8 : 8+plen]
		if crc32.Checksum(payload, castagnoli) != want {
			return off
		}
		seq := binary.LittleEndian.Uint64(payload)
		ops, err := delta.DecodeOps(payload[8:])
		if err != nil {
			return off
		}
		// Seqs within a WAL increase by exactly 1; the first may predate
		// the base (compaction-crash debris) but never skip past it.
		if prev == 0 {
			if seq < 1 || seq > s.baseSeq+1 {
				return off
			}
		} else if seq != prev+1 {
			return off
		}
		prev = seq
		if prev > s.lastSeq {
			s.lastSeq = prev
		}
		rlen := int64(8 + plen)
		if seq <= s.baseSeq {
			s.stats.SkippedRecords++
		} else {
			s.tail = append(s.tail, Batch{Seq: seq, Ops: ops, off: off, len: rlen})
		}
		off += rlen
	}
	return off
}

// writeFreshWAL writes an empty WAL (header only) at name, fsync'd.
func (s *Store) writeFreshWAL(name string) error {
	path := filepath.Join(s.dir, name)
	f, err := s.fsys.Create(path)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", name, err)
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	if _, err := f.Write(hdr[:]); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("store: init %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: init %s: %w", name, err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// Base returns the recovered base graph (nil for a fresh store) and the
// seq folded into it.
func (s *Store) Base() (*graph.Graph, uint64) {
	return s.baseG, s.baseSeq
}

// Tail returns the WAL batches to replay over the base, in seq order.
func (s *Store) Tail() []Batch { return s.tail }

// Stats returns what recovery found.
func (s *Store) Stats() RecoveryStats { return s.stats }

// LastSeq returns the seq of the last batch the store knows about
// (recovered or appended); Append must be called with LastSeq()+1.
func (s *Store) LastSeq() uint64 { return s.lastSeq }

// fail records the first write-path error and poisons the store: after
// a torn append or a failed fsync the in-file state no longer matches
// the in-memory state, and only a fresh Open re-establishes it.
func (s *Store) fail(err error) error {
	if s.broken == nil {
		s.broken = err
	}
	return err
}

// Append writes one batch record under seq (must be LastSeq()+1) and,
// under SyncBatch, fsyncs it. On return with nil error the batch is
// acked: recovery will replay it. Any error poisons the store.
func (s *Store) Append(seq uint64, ops []delta.Op) error {
	if s.closed {
		return ErrStoreClosed
	}
	if s.broken != nil {
		return s.broken
	}
	if seq != s.lastSeq+1 {
		return s.fail(fmt.Errorf("store: append seq %d, want %d", seq, s.lastSeq+1))
	}
	s.buf = s.buf[:0]
	s.buf = append(s.buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	s.buf = binary.LittleEndian.AppendUint64(s.buf, seq)
	s.buf = delta.EncodeOps(s.buf, ops)
	payload := s.buf[8:]
	if len(payload) > maxRecordLen {
		return s.fail(fmt.Errorf("store: batch of %d ops exceeds record limit", len(ops)))
	}
	binary.LittleEndian.PutUint32(s.buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(s.buf[4:], crc32.Checksum(payload, castagnoli))
	if _, err := s.w.Write(s.buf); err != nil {
		return s.fail(fmt.Errorf("store: append: %w", err))
	}
	if s.sync == SyncBatch {
		if err := s.w.Sync(); err != nil {
			return s.fail(fmt.Errorf("store: append sync: %w", err))
		}
	}
	s.walSize += int64(len(s.buf))
	s.lastSeq = seq
	return nil
}

// WriteBase persists a snapshot under the atomic-rename protocol and
// swaps in an empty WAL. g's state must fold every batch up to and
// including seq; an overlay view writes its merged adjacency, the same
// bytes as its Compact(). aux is not written: it is a function of g,
// and whoever opens the store builds it from the recovered graph. On
// error the store is poisoned but the directory stays recoverable:
// either the old base or the new one is in place, and the WAL retains
// every record the base might miss.
func (s *Store) WriteBase(g *graph.Graph, aux *graph.Aux, seq uint64) error {
	if s.closed {
		return ErrStoreClosed
	}
	if s.broken != nil {
		return s.broken
	}
	if seq != s.lastSeq {
		return s.fail(fmt.Errorf("store: base at seq %d, want current seq %d", seq, s.lastSeq))
	}
	tmpPath := filepath.Join(s.dir, baseTmp)
	f, err := s.fsys.Create(tmpPath)
	if err != nil {
		return s.fail(fmt.Errorf("store: create %s: %w", baseTmp, err))
	}
	var prologue [basePrologueLen]byte
	copy(prologue[:], baseMagic)
	binary.LittleEndian.PutUint32(prologue[4:], baseVersion)
	binary.LittleEndian.PutUint64(prologue[8:], seq)
	binary.LittleEndian.PutUint32(prologue[16:], crc32.Checksum(prologue[:16], castagnoli))
	_, err = f.Write(prologue[:])
	if err == nil {
		crc := crc32.New(castagnoli)
		if err = dataset.WriteBinary(io.MultiWriter(f, crc), g); err == nil {
			_, err = f.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return s.fail(fmt.Errorf("store: write %s: %w", baseTmp, err))
	}
	if err := f.Close(); err != nil {
		return s.fail(fmt.Errorf("store: close %s: %w", baseTmp, err))
	}
	if err := s.fsys.Rename(tmpPath, filepath.Join(s.dir, baseName)); err != nil {
		return s.fail(fmt.Errorf("store: rename %s: %w", baseTmp, err))
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return s.fail(fmt.Errorf("store: sync dir: %w", err))
	}
	s.baseSeq = seq
	// The base now covers the whole log: swap in an empty WAL the same
	// tmp + rename way. Close the old handle first — after the rename it
	// would point at the unlinked old inode.
	if err := s.w.Close(); err != nil {
		s.w = nil
		return s.fail(fmt.Errorf("store: close %s: %w", walName, err))
	}
	s.w = nil
	if err := s.writeFreshWAL(walTmp); err != nil {
		return s.fail(err)
	}
	if err := s.fsys.Rename(filepath.Join(s.dir, walTmp), filepath.Join(s.dir, walName)); err != nil {
		return s.fail(fmt.Errorf("store: rename %s: %w", walTmp, err))
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return s.fail(fmt.Errorf("store: sync dir: %w", err))
	}
	w, err := s.fsys.OpenAppend(filepath.Join(s.dir, walName))
	if err != nil {
		return s.fail(fmt.Errorf("store: reopen %s: %w", walName, err))
	}
	s.w = w
	s.walSize = walHeaderLen
	s.tail = nil
	return nil
}

// DropTailFrom truncates the WAL at recovered tail batch i (and all
// after it), for a facade whose replay rejected that batch: a record
// that passes CRC but not validation means the writer and reader
// disagree, and keeping it would re-fail every future open. The drop is
// surfaced in Stats.
func (s *Store) DropTailFrom(i int) error {
	if s.closed {
		return ErrStoreClosed
	}
	if s.broken != nil {
		return s.broken
	}
	if i < 0 || i >= len(s.tail) {
		return s.fail(fmt.Errorf("store: drop tail %d of %d", i, len(s.tail)))
	}
	b := s.tail[i]
	if err := s.fsys.Truncate(filepath.Join(s.dir, walName), b.off); err != nil {
		return s.fail(fmt.Errorf("store: drop tail: %w", err))
	}
	if err := s.w.Sync(); err != nil {
		return s.fail(fmt.Errorf("store: drop tail sync: %w", err))
	}
	s.stats.Truncated = true
	s.stats.DroppedBytes += s.walSize - b.off
	s.stats.TailBatches = i
	s.stats.TailOps = 0
	for _, kept := range s.tail[:i] {
		s.stats.TailOps += len(kept.Ops)
	}
	s.walSize = b.off
	s.lastSeq = b.Seq - 1
	s.tail = s.tail[:i]
	return nil
}

// Close syncs and closes the WAL. The store refuses further writes;
// reopening the directory resumes from exactly the acked state.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w == nil {
		return nil
	}
	var err error
	if s.broken == nil {
		err = s.w.Sync()
	}
	if cerr := s.w.Close(); err == nil {
		err = cerr
	}
	s.w = nil
	return err
}
