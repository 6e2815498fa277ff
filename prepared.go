package rbq

// The prepared-query facade: compile a pattern once with DB.Prepare, then
// execute it many times through PreparedQuery.Query (or the legacy Run*
// wrappers, each a one-line Request translation). The one-shot DB methods
// share compilations through the plan cache instead, so every path runs
// the same core and returns bit-for-bit identical answers. Request axes
// apply unchanged here too: Request.Parallelism bounds the intra-query
// worker pool of an Unanchored execution, and PreparedQuery.QueryBatch
// shards its pins across the same pool (internal/exec) — a Plan is
// immutable and every run borrows pooled scratch, so concurrent
// executions of one PreparedQuery were already safe.

import (
	"context"
	"fmt"

	"rbq/internal/plan"
)

// PreparedQuery is a pattern compiled against a DB: interned labels,
// pre-bound reduction semantics for both query classes, the cached
// diameter and unique personalized match, and (lazily) the selectivity
// table unanchored evaluation splits its budget by. Prepare once per
// template, execute many times; a PreparedQuery is immutable and safe
// for concurrent use — per-run transient state comes from the DB's
// scratch pools, exactly as for the one-shot methods.
//
// PreparedQuery pins its compilation for the lifetime of the value,
// independent of the DB's plan cache and its eviction policy; DB.Query
// reaches the same steady state through the cache without the explicit
// handle.
type PreparedQuery struct {
	db    *DB
	pl    *plan.Plan
	epoch uint64 // of the snapshot pinned at Prepare
}

// Prepare compiles q for repeated evaluation against db. The compile
// step resolves every label constraint to the graph's interned ids,
// binds the RBSim/RBSub reduction semantics, and resolves the
// personalized node's unique match when one exists; execution time is
// then the reduction and matching alone.
//
// The compilation pins the snapshot current at Prepare time: every
// later execution runs against that point-in-time view, unaffected by
// DB.Apply. Re-Prepare (or use DB.Query, whose epoch-keyed cache
// recompiles lazily) to observe mutations.
func (db *DB) Prepare(q *Pattern) (*PreparedQuery, error) {
	snap := db.snapshot()
	pl, err := plan.New(snap.Aux(), q)
	if err != nil {
		return nil, fmt.Errorf("rbq: %w", err)
	}
	return &PreparedQuery{db: db, pl: pl, epoch: snap.Epoch()}, nil
}

// Pattern returns the compiled pattern.
func (pq *PreparedQuery) Pattern() *Pattern { return pq.pl.Pattern() }

// Personalized returns the unique data-graph match of the pattern's
// personalized node resolved at compile time; ok is false when the label
// is absent or ambiguous (pin via Request.Anchor, or run Unanchored).
func (pq *PreparedQuery) Personalized() (NodeID, bool) { return pq.pl.Personalized() }

// Run answers the pattern under strong simulation with resource ratio
// alpha, anchored at the compile-time personalized match.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Mode: Bounded, Alpha: alpha}; prefer Query, which adds
// cancellation and per-query stats.
func (pq *PreparedQuery) Run(alpha float64) (PatternResult, error) {
	return toPatternResult(pq.Query(context.Background(), Request{Alpha: alpha}))
}

// RunAt is Run with the personalized node pinned to an explicit data
// node.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Anchor: Pin(vp), Alpha: alpha}.
func (pq *PreparedQuery) RunAt(vp NodeID, alpha float64) (PatternResult, error) {
	return toPatternResult(pq.Query(context.Background(), Request{Anchor: &vp, Alpha: alpha}))
}

// RunBatch evaluates the template at many pins concurrently with one
// shared resource ratio; workers ≤ 0 means one goroutine per CPU.
// Results align with pins; a pin failing label validation yields a
// nil-Matches zero result.
//
// Deprecated-style wrapper: equivalent to QueryBatch with
// Request{Mode: Bounded, Alpha: alpha}.
func (pq *PreparedQuery) RunBatch(pins []NodeID, alpha float64, workers int) []PatternResult {
	res, _ := pq.QueryBatch(context.Background(), pins, Request{Alpha: alpha}, workers)
	return toPatternResults(res, len(pins), func(i int) NodeID { return pins[i] })
}

// RunUnanchored answers the pattern with NO unique personalized match
// under strong simulation: every candidate of the most selective query
// node is tried as the anchor, sharing one α|G| budget split by the
// plan's selectivity table.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Mode: Unanchored, Alpha: alpha}.
func (pq *PreparedQuery) RunUnanchored(alpha float64) UnanchoredResult {
	return toUnanchoredResult(pq.Query(context.Background(), Request{Mode: Unanchored, Alpha: alpha}))
}

// RunExact answers the pattern exactly under strong simulation.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Mode: Exact}.
func (pq *PreparedQuery) RunExact() ([]NodeID, error) {
	return toMatches(pq.Query(context.Background(), Request{Mode: Exact}))
}

// RunExactAt is RunExact with the personalized node pinned explicitly.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Mode: Exact, Anchor: Pin(vp)}.
func (pq *PreparedQuery) RunExactAt(vp NodeID) ([]NodeID, error) {
	return toMatches(pq.Query(context.Background(), Request{Mode: Exact, Anchor: &vp}))
}

// RunSubgraph answers the pattern under subgraph isomorphism.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Semantics: Subgraph, Alpha: alpha}.
func (pq *PreparedQuery) RunSubgraph(alpha float64) (PatternResult, error) {
	return toPatternResult(pq.Query(context.Background(), Request{Semantics: Subgraph, Alpha: alpha}))
}

// RunSubgraphAt is RunSubgraph with the personalized node pinned
// explicitly.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Semantics: Subgraph, Anchor: Pin(vp), Alpha: alpha}.
func (pq *PreparedQuery) RunSubgraphAt(vp NodeID, alpha float64) (PatternResult, error) {
	return toPatternResult(pq.Query(context.Background(),
		Request{Semantics: Subgraph, Anchor: &vp, Alpha: alpha}))
}

// RunSubgraphBatch is RunBatch under subgraph isomorphism.
//
// Deprecated-style wrapper: equivalent to QueryBatch with
// Request{Semantics: Subgraph, Alpha: alpha}.
func (pq *PreparedQuery) RunSubgraphBatch(pins []NodeID, alpha float64, workers int) []PatternResult {
	res, _ := pq.QueryBatch(context.Background(), pins, Request{Semantics: Subgraph, Alpha: alpha}, workers)
	return toPatternResults(res, len(pins), func(i int) NodeID { return pins[i] })
}

// RunSubgraphUnanchored is RunUnanchored under subgraph isomorphism.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Semantics: Subgraph, Mode: Unanchored, Alpha: alpha}.
func (pq *PreparedQuery) RunSubgraphUnanchored(alpha float64) UnanchoredResult {
	return toUnanchoredResult(pq.Query(context.Background(),
		Request{Semantics: Subgraph, Mode: Unanchored, Alpha: alpha}))
}

// RunSubgraphExact answers the pattern exactly under subgraph
// isomorphism; maxSteps caps the backtracking search (0 = unlimited) and
// the bool reports completion.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Semantics: Subgraph, Mode: Exact, MaxSteps: maxSteps}.
func (pq *PreparedQuery) RunSubgraphExact(maxSteps int64) ([]NodeID, bool, error) {
	return toMatchesComplete(pq.Query(context.Background(),
		Request{Semantics: Subgraph, Mode: Exact, MaxSteps: maxSteps}))
}

// RunSubgraphExactAt is RunSubgraphExact with the personalized node
// pinned explicitly.
//
// Deprecated-style wrapper: equivalent to Query with
// Request{Semantics: Subgraph, Mode: Exact, Anchor: Pin(vp), MaxSteps: maxSteps}.
func (pq *PreparedQuery) RunSubgraphExactAt(vp NodeID, maxSteps int64) ([]NodeID, bool, error) {
	return toMatchesComplete(pq.Query(context.Background(),
		Request{Semantics: Subgraph, Mode: Exact, Anchor: &vp, MaxSteps: maxSteps}))
}
