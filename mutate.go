package rbq

// The mutation facade: DB.Apply buffers a validated batch of graph
// mutations into the DB's live delta (internal/delta) and publishes a
// fresh immutable snapshot; readers pin a snapshot with one atomic
// pointer load, so queries never block on writers and always see one
// consistent epoch end to end — and neither does anything else that
// reads: db.mu is taken by Apply, Compact, the threshold setters and
// Close, and by nothing a query, a stats call or a metrics scrape
// reaches. When the live delta crosses the
// compaction threshold, Apply materializes the merged base CSR + Aux —
// spliced incrementally from the overlay in O(delta) when the touched
// set is small (see SetCompactSpliceFraction), rebuilt in O(|G|) past
// that — off the request path: readers keep the old snapshot until the
// swap — and starts an empty delta over the new base. Neither an Apply
// nor a compaction touches the plan cache: a compiled plan depends on
// the pattern and the label alphabet, not on the snapshot.
//
// Epoch/pinning invariants (the property and race tests in
// mutation_test.go enforce them):
//
//   - Every published snapshot is immutable: its graph view, Aux and
//     every structure hanging off them never change after Store.
//   - A query uses exactly one snapshot: DB.Query loads it once and
//     threads it beside the compiled plan through validation, reduction
//     and matching. Concurrent Applies are invisible to in-flight
//     queries, and Result.Epoch names the snapshot the answer is of.
//   - No read waits for a writer. MutationStats is an immutable value
//     replaced under db.mu at every publish (publishStatsLocked) and
//     read with one atomic load; RecoveryStats is written once, before
//     OpenDB returns the DB. An Apply holds db.mu through its WAL
//     fsync, its seal and any compaction and image write; none of that
//     is visible to a reader until the publish at its end.
//   - Scratch survives a publish: the patched Aux of every snapshot and
//     the spliced base of every incremental compaction share the base
//     Aux's scratch pools, so an Apply costs readers no allocation.
//   - Label ids only ever grow by appending: a batch's new labels take
//     the next ids, and both compaction paths keep the view's label
//     table as it is. Two snapshots of a lineage with equally many
//     labels therefore have the same table.
//   - A cached plan holds no snapshot: it is compiled against the label
//     alphabet and bound to the querying snapshot's Aux per run, so it
//     stays valid across Apply and compaction for as long as the
//     alphabet keeps its size. A lookup at a snapshot with more labels
//     recompiles the entry (counted in PlanCacheStats.Invalidations).
//   - PreparedQuery pins the snapshot current at Prepare time: re-run
//     Prepare (or use DB.Query) to observe later mutations.

import (
	"fmt"
	"time"

	"rbq/internal/delta"
)

// Op is one graph mutation: a node add, an edge add or an edge delete.
// Build with AddNode/AddEdge/DelEdge and submit batches through
// DB.Apply.
type Op = delta.Op

// AddNode returns an op appending a node labeled label. The new node's
// id is the graph's node count at the moment the op takes effect within
// its batch (ids are dense; nodes are never deleted).
func AddNode(label string) Op { return delta.AddNode(label) }

// AddEdge returns an op inserting the directed edge (from, to). The
// edge must not already exist; endpoints may be nodes added earlier in
// the same batch.
func AddEdge(from, to NodeID) Op { return delta.AddEdge(from, to) }

// DelEdge returns an op removing the directed edge (from, to), which
// must exist.
func DelEdge(from, to NodeID) Op { return delta.DelEdge(from, to) }

// DefaultCompactThreshold is the live-delta op count at which Apply
// compacts: the merged view is rebuilt as a fresh base CSR + Aux and
// swapped in. See SetCompactThreshold.
const DefaultCompactThreshold = 1 << 15

// Apply validates and applies one batch of mutations atomically: either
// every op is consistent with the current graph (in batch order, so an
// edge may target a node added earlier in the batch) and a snapshot
// containing the whole batch is published, or the DB is left unchanged
// and the error names the first offending op (wrapped in ErrBadRequest).
//
// Apply is safe to call concurrently with queries and with other
// Applies (writers serialize behind a mutex). In-flight queries keep
// the snapshot they pinned; queries issued after Apply returns see the
// mutations. Sealing costs O(live delta); when the live delta reaches
// the compaction threshold, Apply additionally materializes the merged
// base before publishing (O(delta) spliced, or O(|G|) rebuilt past the
// splice fraction) — still without blocking readers.
//
// On a persistent DB (see OpenDB) the batch is validated first, then
// appended to the WAL (fsync'd per the SyncPolicy), and only then
// buffered and published: a nil return means the batch is durable —
// recovery replays it. A WAL error fails the Apply, leaves the DB
// unchanged, and poisons the store (reopen to resume); after Close,
// Apply returns ErrClosed.
func (db *DB) Apply(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.store == nil {
		if err := db.pending.Apply(ops); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return db.publishLocked(db.pending.Ops() >= db.compactAt)
	}
	// Durability ordering: validate (no state moves), append to the WAL,
	// then buffer. A batch that passed Validate cannot fail the Apply
	// below, so the WAL never acks a record the in-memory DB rejects.
	if err := db.pending.Validate(ops); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := db.store.Append(db.seq+1, ops); err != nil {
		return fmt.Errorf("rbq: wal append: %w", err)
	}
	db.seq++
	if err := db.pending.Apply(ops); err != nil {
		panic(fmt.Sprintf("rbq: validated batch failed to apply: %v", err))
	}
	return db.publishLocked(db.pending.Ops() >= db.compactAt)
}

// Compact forces a compaction: the current snapshot's merged view is
// materialized as a standalone base CSR + Aux — spliced incrementally
// from the overlay when the touched set is within the splice fraction,
// rebuilt from scratch otherwise — and swapped in, and the live delta
// resets to empty. A no-op when there is no live delta. Apply triggers
// the same materialization automatically at the compaction threshold;
// Compact is for callers that want it at a quiet moment of their own
// choosing. MutationStats reports how the last compaction ran.
//
// On a persistent DB compaction also writes the rebuilt base as a new
// snapshot image (temp file, fsync, atomic rename) and truncates the
// WAL. The returned error reports a failed image write; the in-memory
// compaction still took effect and no acked batch is at risk — the WAL
// retains everything the image misses — but the store refuses further
// writes until reopened. In-memory DBs always return nil.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.pending.Ops() == 0 {
		return nil
	}
	// publishLocked cannot fail here: the pending delta was validated
	// op by op as it accumulated.
	if err := db.publishLocked(true); err != nil {
		panic(fmt.Sprintf("rbq: compaction of a validated delta failed: %v", err))
	}
	return db.lastBaseErr
}

// publishLocked seals the pending delta into the next-epoch snapshot —
// compacting it into a fresh base first when compact is set — and
// publishes it. Callers hold db.mu.
func (db *DB) publishLocked(compact bool) error {
	epoch := db.snap.Load().Epoch() + 1
	snap, err := db.pending.Seal(epoch)
	if err != nil {
		return fmt.Errorf("rbq: %w", err)
	}
	if compact {
		start := time.Now()
		var info delta.CompactInfo
		snap, info = snap.CompactedWith(epoch, db.compactFrac)
		db.lastCompactNs = time.Since(start).Nanoseconds()
		db.lastCompactTouched = info.TouchedNodes
		if info.Incremental {
			db.lastCompactMode = CompactModeIncremental
		} else {
			db.lastCompactMode = CompactModeFull
		}
		db.pending = delta.New(snap.Graph(), snap.Aux())
		db.compactions++
		if db.store != nil {
			// Persist the rebuilt base and truncate the WAL. The spliced
			// arrays of an incremental compaction are bit-for-bit the ones
			// a full rebuild produces, so they stream into the image writer
			// directly — no extra materialization, same durability ordering
			// (temp file, fsync, atomic rename). Failure does not fail the
			// publish: every acked batch is still in the WAL (the protocol
			// only truncates it after the image is durable), so correctness
			// is intact — but the store is poisoned and later Applies will
			// surface the outage. Compact() returns this error; threshold-
			// triggered compactions expose it via MutationStats.
			db.lastBaseErr = db.store.WriteBase(snap.Graph(), snap.Aux(), db.seq)
			if db.lastBaseErr != nil {
				db.baseWriteErrs++
			}
		}
	}
	db.snap.Store(snap)
	db.publishStatsLocked()
	return nil
}

// publishStatsLocked replaces the MutationStats value readers load.
// Callers hold db.mu (or own a DB nobody else can see yet) and call it
// after every change to a field it copies.
func (db *DB) publishStatsLocked() {
	db.mstats.Store(&MutationStats{
		Epoch:                   db.snap.Load().Epoch(),
		LiveDeltaOps:            db.pending.Ops(),
		Compactions:             db.compactions,
		CompactThreshold:        db.compactAt,
		LastCompactNs:           db.lastCompactNs,
		LastCompactTouchedNodes: db.lastCompactTouched,
		Mode:                    db.lastCompactMode,
		Persistent:              db.store != nil,
		Seq:                     db.seq,
		BaseWriteErrors:         db.baseWriteErrs,
	})
}

// SetCompactThreshold sets the live-delta op count at which Apply
// compacts (minimum 1; the default is DefaultCompactThreshold). A lower
// threshold trades more frequent O(|G|) rebuilds for cheaper overlay
// lookups on touched nodes; tests use it to force compaction churn.
func (db *DB) SetCompactThreshold(n int) {
	if n < 1 {
		n = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.compactAt = n
	db.publishStatsLocked()
}

// SetCompactSpliceFraction sets the touched-node fraction of |V| up to
// which compaction splices the new base incrementally from the overlay
// (O(|delta| + touched-degree)) instead of rebuilding it from scratch
// (O(|G|)). The default is graph.DefaultCompactSpliceFraction; 0 forces
// every compaction down the full-rebuild path, 1 always splices. Both
// strategies produce bit-for-bit identical bases — the knob trades the
// splice's bulk array copies against the rebuild's re-sort, and exists
// mainly for benchmarking and for pinning a path in tests.
func (db *DB) SetCompactSpliceFraction(f float64) {
	if f < 0 {
		f = 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.compactFrac = f
}

// CompactMode says how a compaction materialized the new base.
type CompactMode string

const (
	// CompactModeFull is the O(|G|) from-scratch rebuild.
	CompactModeFull CompactMode = "full"
	// CompactModeIncremental is the O(delta) splice of the overlay's
	// merged segments onto the untouched base arrays.
	CompactModeIncremental CompactMode = "incremental"
)

// MutationStats is a snapshot of the DB's mutation-side counters.
type MutationStats struct {
	// Epoch is the current snapshot's publish epoch; it increments with
	// every Apply and every compaction.
	Epoch uint64
	// LiveDeltaOps is the net op count of the live delta (zero right
	// after a compaction). Net: an add canceled by a later delete leaves
	// no trace.
	LiveDeltaOps int
	// Compactions counts base rebuilds (threshold-triggered and
	// explicit alike). CompactThreshold is the current trigger.
	Compactions      uint64
	CompactThreshold int
	// LastCompactNs is the wall time of the most recent compaction's
	// in-memory rebuild (excluding any base-image write);
	// LastCompactTouchedNodes the size of the touched set it spliced (or
	// would have spliced — also set when the fallback rebuilt in full);
	// Mode which strategy ran, empty until the first compaction.
	LastCompactNs           int64
	LastCompactTouchedNodes int
	Mode                    CompactMode
	// Persistent reports whether the DB is backed by a store directory
	// (OpenDB); Seq is the last batch sequence acked to the WAL, and
	// BaseWriteErrors counts failed base-image writes (each poisons the
	// store until the DB is reopened). All zero for in-memory DBs.
	Persistent      bool
	Seq             uint64
	BaseWriteErrors uint64
}

// MutationStats returns the DB's mutation counters as of the last
// publish: one atomic load, never a wait — an Apply in progress (its
// WAL fsync, seal, compaction or image write) is invisible until it
// publishes, exactly as it is to queries.
func (db *DB) MutationStats() MutationStats { return *db.mstats.Load() }
