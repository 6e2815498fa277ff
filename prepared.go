package rbq

// The prepared-query facade: compile a pattern once with DB.Prepare, then
// execute it many times through PreparedQuery.Query. DB.Query shares
// compilations through the plan cache instead, so both paths run the same
// core and return bit-for-bit identical answers. PreparedQuery.QueryBatch
// shards its pins across the worker pool (internal/exec) — a Plan is
// immutable and every run borrows pooled scratch, so concurrent
// executions of one PreparedQuery are safe.

import (
	"fmt"

	"rbq/internal/delta"
	"rbq/internal/plan"
)

// PreparedQuery is a pattern compiled against a DB — interned labels,
// the reduction semantics of both query classes, the cached diameter —
// together with the snapshot current at Prepare. Prepare once per
// template, execute many times; a PreparedQuery is immutable and safe
// for concurrent use — per-run transient state comes from the DB's
// scratch pools, exactly as for DB.Query.
//
// PreparedQuery pins its compilation and its snapshot for the lifetime
// of the value, independent of the DB's plan cache and its eviction
// policy; DB.Query reaches the same steady state through the cache
// without the explicit handle.
type PreparedQuery struct {
	pl   *plan.Plan
	snap *delta.Snapshot // pinned at Prepare
}

// Prepare compiles q for repeated evaluation against db. The compile
// step resolves every label constraint to the graph's interned ids and
// compiles the reduction semantics of both query classes; execution time
// is then the reduction and matching alone.
//
// Prepare pins the snapshot current at Prepare time: every later
// execution runs against that point-in-time view, unaffected by
// DB.Apply. Re-Prepare (or use DB.Query, which runs against the current
// snapshot) to observe mutations.
func (db *DB) Prepare(q *Pattern) (*PreparedQuery, error) {
	snap := db.snapshot()
	pl, err := plan.New(snap.Aux(), q)
	if err != nil {
		return nil, fmt.Errorf("rbq: %w", err)
	}
	return &PreparedQuery{pl: pl, snap: snap}, nil
}

// Pattern returns the compiled pattern.
func (pq *PreparedQuery) Pattern() *Pattern { return pq.pl.Pattern() }

// Personalized returns the unique match of the pattern's personalized
// node in the pinned snapshot; ok is false when the label is absent or
// ambiguous there (pin via Request.Anchor, or run Unanchored).
func (pq *PreparedQuery) Personalized() (NodeID, bool) { return pq.pl.Personalized(pq.snap.Aux()) }
