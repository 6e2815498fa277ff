package rbq

// The persistence facade: OpenDB gives a DB whose mutations survive the
// process. Under the hood (internal/store) the directory holds a base
// snapshot image plus a checksummed WAL of op batches; Apply appends
// the batch to the WAL *before* buffering it, compaction persists the
// rebuilt base and truncates the WAL, and OpenDB recovers by loading
// the last good image and replaying the WAL tail — truncating a torn or
// corrupt tail instead of refusing to open, with the damage reported in
// RecoveryStats.
//
// A DB from NewDB/Load is untouched by any of this: its store is nil,
// its Apply path is exactly the pre-persistence one, and the query hot
// path is identical for both kinds (queries never consult the store).

import (
	"errors"
	"fmt"
	"os"

	"rbq/internal/delta"
	"rbq/internal/graph"
	"rbq/internal/store"
)

// ErrClosed is returned by mutations on a DB after Close. Queries keep
// working: they run against the last published in-memory snapshot.
var ErrClosed = errors.New("rbq: DB is closed")

// SyncPolicy selects when a persistent DB fsyncs its WAL.
type SyncPolicy int

const (
	// SyncBatch (the default) fsyncs after every Apply: an acked batch
	// is durable against power loss.
	SyncBatch SyncPolicy = iota
	// SyncNone leaves fsync to Close and compaction. An OS crash can
	// drop recently acked batches (never tear the surviving prefix);
	// a plain process crash loses nothing.
	SyncNone
)

// OpenOptions configures OpenDB.
type OpenOptions struct {
	// Sync is the WAL fsync policy.
	Sync SyncPolicy
	// Bootstrap seeds a fresh directory with an initial graph (persisted
	// as the first base image). Ignored when the directory already holds
	// data — reopening always resumes from disk.
	Bootstrap *Graph
	// BootstrapFile names a graph file, in either format Load reads, that
	// seeds a fresh directory when Bootstrap is nil. It is opened only
	// then: reopening a directory that holds data never touches it.
	BootstrapFile string

	// fs overrides the store's filesystem; fault-injection tests only.
	fs store.FS
}

// RecoveryStats reports what OpenDB found on disk and what, if
// anything, recovery had to drop. Dropping is never silent.
type RecoveryStats struct {
	// FreshDir is set when the directory held no prior state.
	FreshDir bool
	// BaseSeq is the last batch folded into the loaded base image;
	// ReplayedBatches/ReplayedOps count the WAL tail applied on top.
	BaseSeq         uint64
	ReplayedBatches int
	ReplayedOps     int
	// SkippedRecords counts WAL records already folded into the base
	// (debris of a crash between compaction's two renames).
	SkippedRecords int
	// Truncated is set when a torn or corrupt WAL tail was cut off;
	// DroppedBytes is how much was discarded. A batch that was never
	// acked may legitimately land here.
	Truncated    bool
	DroppedBytes int64
	// DroppedBatches counts checksum-valid batches that failed replay
	// validation and were truncated away (writer/reader version skew —
	// should be zero in any healthy deployment).
	DroppedBatches int
}

// OpenDB opens (or initializes) a persistent DB rooted at dir. A fresh
// directory starts from opts.Bootstrap or opts.BootstrapFile (or an empty
// graph) and persists it as the first base image; an existing directory
// resumes from its last good base image plus the WAL tail, per the
// recovery rules in RecoveryStats. The returned DB answers queries
// exactly like an in-memory one; Apply additionally writes the batch to
// the WAL before acking, and compaction persists the rebuilt base.
func OpenDB(dir string, opts OpenOptions) (*DB, error) {
	sp := store.SyncBatch
	if opts.Sync == SyncNone {
		sp = store.SyncNone
	}
	st, err := store.Open(dir, store.Options{Sync: sp, FS: opts.fs})
	if err != nil {
		return nil, fmt.Errorf("rbq: open %s: %w", dir, err)
	}
	fail := func(err error) (*DB, error) {
		st.Close()
		return nil, err
	}
	g, aux, _ := st.Base()
	fresh := g == nil
	if fresh {
		switch {
		case opts.Bootstrap != nil:
			g = opts.Bootstrap.Compact() // identity for base graphs
		case opts.BootstrapFile != "":
			if g, err = readGraphFile(opts.BootstrapFile); err != nil {
				return fail(fmt.Errorf("rbq: open %s: bootstrap: %w", dir, err))
			}
		default:
			g = graph.NewBuilder(0, 0).Build()
		}
		aux = graph.BuildAux(g)
	}
	db := &DB{
		plans:       newPlanCache(DefaultPlanCacheCapacity),
		compactAt:   DefaultCompactThreshold,
		compactFrac: graph.DefaultCompactSpliceFraction,
	}
	db.snap.Store(delta.NewBase(g, aux, 0))
	db.pending = delta.New(g, aux)
	db.store = st
	_, _, db.seq = st.Base()

	if fresh {
		// Persist the bootstrap as the first base image so the directory
		// is self-contained from the start (WAL batches reference base
		// node ids; without the image they would be meaningless).
		if err := st.WriteBase(g, aux, 0); err != nil {
			return fail(fmt.Errorf("rbq: open %s: bootstrap image: %w", dir, err))
		}
	}
	// Replay the recovered WAL tail over the base. A batch that passes
	// its CRC but fails validation is dropped along with everything
	// after it (see RecoveryStats.DroppedBatches).
	tailLen := len(st.Tail())
	dropped := 0
	for i, b := range st.Tail() {
		if aerr := db.pending.Apply(b.Ops); aerr != nil {
			if derr := st.DropTailFrom(i); derr != nil {
				return fail(fmt.Errorf("rbq: open %s: replay batch seq %d: %v; truncate failed: %w", dir, b.Seq, aerr, derr))
			}
			dropped = tailLen - i
			break
		}
		db.seq = b.Seq
	}
	if db.pending.Ops() > 0 {
		if err := db.publishLocked(false); err != nil {
			return fail(fmt.Errorf("rbq: open %s: %w", dir, err))
		}
	}
	ss := st.Stats()
	db.recovery = RecoveryStats{
		FreshDir:        ss.FreshDir,
		BaseSeq:         ss.BaseSeq,
		ReplayedBatches: ss.TailBatches,
		ReplayedOps:     ss.TailOps,
		SkippedRecords:  ss.SkippedRecords,
		Truncated:       ss.Truncated,
		DroppedBytes:    ss.DroppedBytes,
		DroppedBatches:  dropped,
	}
	db.publishStatsLocked() // not yet shared: no lock needed
	return db, nil
}

// readGraphFile decodes the graph file at path (see Load).
func readGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readGraph(f)
}

// RecoveryStats returns what OpenDB found on disk. Zero for in-memory
// DBs. The value is written once, before OpenDB returns the DB, so
// reading it takes no lock.
func (db *DB) RecoveryStats() RecoveryStats { return db.recovery }

// Close syncs and closes the persistent state. Mutations after Close
// return ErrClosed; queries keep answering from the last published
// snapshot. Close takes the mutation mutex, so it can never tear an
// in-flight Apply: a batch is either fully acked (and durable) or
// rejected. Closing an in-memory DB only stops further mutations.
// Close is idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.store != nil {
		return db.store.Close()
	}
	return nil
}
