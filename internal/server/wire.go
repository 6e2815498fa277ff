// Package server is rbq's serving tier: a long-running HTTP/JSON
// daemon over one rbq.DB (see cmd/rbqd), whose core is resource
// governance rather than routing. Three mechanisms compose:
//
//   - Admission control (admission.go): a bounded in-flight limit plus
//     a small bounded wait queue. Overflow is answered immediately with
//     429 + Retry-After; nothing ever waits unboundedly — queue waits
//     are capped by the request's deadline and the server's MaxQueueWait.
//   - Per-tenant α budgets (tenant.go): each tenant owns a
//     visits-per-second token bucket charged from Result.Visited
//     actuals. The paper's abstraction makes α a resource budget, so an
//     over-budget tenant (or a saturated server) is degraded — its α is
//     clamped downward toward a configurable floor — instead of
//     rejected, and every response reports the effective α and
//     completeness telemetry so the degradation is observable.
//   - An operational surface (metrics.go, server.go): Prometheus text
//     metrics, structured access logs, graceful shutdown that drains
//     in-flight queries and closes the durable DB.
//
// This file defines the wire codec: the JSON bodies of /v1/query,
// /v1/query_batch, /v1/apply and /v1/stats, shared by the daemon, the
// rbquery -server client mode and the serving benchmarks. Mutations ride
// the existing op-stream text format (internal/delta), so the WAL, the
// CLI tooling and the HTTP tier all speak one mutation language.
package server

import "rbq"

// Wire route paths. RouteQuery evaluates one pattern, RouteBatch many
// pinned ones, RouteApply a mutation op stream; RouteStats, RouteHealth
// and RouteMetrics are the operational surface.
const (
	RouteQuery     = "/v1/query"
	RouteBatch     = "/v1/query_batch"
	RouteApply     = "/v1/apply"
	RouteStats     = "/v1/stats"
	RouteHealth    = "/healthz"
	RouteMetrics   = "/metrics"
	RouteDebugSlow = "/v1/debug/slow"
)

// RequestIDHeader carries the request's correlation id: propagated from
// the client when present, generated otherwise, echoed on every
// response, and stamped into the access log, the slow-query log and the
// trace — one key joins all four.
const RequestIDHeader = "X-Request-ID"

// TraceHeader opts a query into span tracing ("1"/"true"); the query
// parameter form is ?trace=1. The response then carries the trace tree.
const TraceHeader = "X-Rbq-Trace"

// TenantHeader is the request header naming the tenant whose α budget
// the query charges. Absent or empty means DefaultTenant.
const TenantHeader = "X-Api-Key"

// DefaultTenant is the bucket anonymous requests charge.
const DefaultTenant = "anonymous"

// QueryRequest is the body of POST /v1/query: a textual pattern (the
// rbq.ParsePattern format) plus the Request axes, in wire-stable string
// form.
type QueryRequest struct {
	// Pattern is the textual pattern.
	Pattern string `json:"pattern"`
	// Semantics is "sim" (default) or "sub".
	Semantics string `json:"semantics,omitempty"`
	// Mode is "bounded" (default), "exact" or "unanchored".
	Mode string `json:"mode,omitempty"`
	// Alpha is the requested resource ratio (bounded/unanchored modes).
	// The server may clamp it downward; the response reports both.
	Alpha float64 `json:"alpha,omitempty"`
	// Anchor pins the personalized node explicitly (anchored modes).
	Anchor *int64 `json:"anchor,omitempty"`
	// MaxSteps caps the subgraph matcher's backtracking (sub semantics).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// TimeoutMs is the client's evaluation deadline in milliseconds
	// (0 = the server default). The server caps it at its MaxTimeout and
	// threads it as a context deadline through every engine loop; an
	// exceeded deadline surfaces as 504 with partial telemetry.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// BatchItem is one pinned query of a BatchRequest.
type BatchItem struct {
	Pattern string `json:"pattern"`
	Anchor  int64  `json:"anchor"`
}

// BatchRequest is the body of POST /v1/query_batch: many pinned items
// sharing one template axis set (anchored modes only, mirroring
// DB.QueryBatch). The batch admits once and charges the tenant once
// with the summed visits, so a batch cannot dodge the budget by
// splitting.
type BatchRequest struct {
	Items     []BatchItem `json:"items"`
	Semantics string      `json:"semantics,omitempty"`
	Mode      string      `json:"mode,omitempty"` // "bounded" (default) or "exact"
	Alpha     float64     `json:"alpha,omitempty"`
	MaxSteps  int64       `json:"max_steps,omitempty"`
	TimeoutMs int64       `json:"timeout_ms,omitempty"`
}

// Governance is the resource-governance telemetry every query-bearing
// response carries: what was asked, what actually ran, and why they
// differ. Degradation is never silent — a clamped α is reported here
// and counted in /metrics.
type Governance struct {
	// Tenant is the budget bucket the request charged.
	Tenant string `json:"tenant"`
	// RequestedAlpha is the α the client asked for; EffectiveAlpha the α
	// the evaluation actually ran with (≤ requested when clamped).
	RequestedAlpha float64 `json:"requested_alpha"`
	EffectiveAlpha float64 `json:"effective_alpha"`
	// Clamped reports whether the server degraded α; ClampReason is
	// "tenant_budget" (the bucket is overdrawn), "saturation" (the
	// request had to queue for an execution slot) or "" when not clamped.
	Clamped     bool   `json:"clamped"`
	ClampReason string `json:"clamp_reason,omitempty"`
	// Queued reports whether the request waited for an execution slot.
	Queued bool `json:"queued"`
	// VisitsCharged is what the tenant bucket was debited for this
	// request (the Result.Visited actuals; exact mode charges the match
	// work's fragment-free equivalent of zero).
	VisitsCharged int `json:"visits_charged"`
	// BudgetRemaining is the tenant bucket's token balance after the
	// charge, floored at the negative burst (overdraft); 0 rate means no
	// budget enforcement and the field is absent.
	BudgetRemaining *float64 `json:"budget_remaining,omitempty"`
}

// QueryResponse is the body of a successful /v1/query (and of each
// BatchResponse item). It carries the full Result telemetry — the
// client always learns how complete its degraded answer is.
type QueryResponse struct {
	Matches      []int64 `json:"matches"`
	Personalized int64   `json:"personalized"`
	Complete     bool    `json:"complete"`
	FragmentSize int     `json:"fragment_size"`
	Budget       int     `json:"budget"`
	Visited      int     `json:"visited"`
	Candidates   int     `json:"candidates,omitempty"`
	Evaluated    int     `json:"evaluated,omitempty"`
	// Epoch is the snapshot epoch the query evaluated against.
	Epoch uint64 `json:"epoch"`
	// ElapsedUs is the server-side evaluation time in microseconds.
	ElapsedUs int64 `json:"elapsed_us"`
	// Governance reports the admission/budget decisions for the request.
	Governance Governance `json:"governance"`
	// RequestID is the correlation id (RequestIDHeader) this request ran
	// under; the same id appears in the access log and any slow-query
	// entry.
	RequestID string `json:"request_id,omitempty"`
	// Trace is the per-phase span tree, present only when the request
	// opted in via TraceHeader or ?trace=1.
	Trace *rbq.Trace `json:"trace,omitempty"`
}

// BatchResponse is the body of a successful /v1/query_batch. Items
// align positionally with the request; an item whose pin failed
// validation carries Error and zero telemetry, leaving the rest intact.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	// Epoch is the snapshot every item evaluated against (one pin for
	// the whole batch). Governance reports the one admission/budget
	// decision the batch shared; VisitsCharged sums over items.
	Epoch      uint64     `json:"epoch"`
	ElapsedUs  int64      `json:"elapsed_us"`
	Governance Governance `json:"governance"`
	RequestID  string     `json:"request_id,omitempty"`
}

// BatchResult is one item of a BatchResponse.
type BatchResult struct {
	Matches      []int64 `json:"matches"`
	Personalized int64   `json:"personalized"`
	Complete     bool    `json:"complete"`
	FragmentSize int     `json:"fragment_size"`
	Budget       int     `json:"budget"`
	Visited      int     `json:"visited"`
	Error        string  `json:"error,omitempty"`
	// Trace is the item's span tree when the batch opted in via
	// TraceHeader or ?trace=1; each item owns its own tree, stamped with
	// its shard identity (batch_index, batch_workers).
	Trace *rbq.Trace `json:"trace,omitempty"`
}

// ApplyResponse is the body of POST /v1/apply. The request body is the
// op-stream text format (internal/delta: node/edge/deledge lines,
// batches separated by "apply"); each batch lands atomically in order.
// A 200 means every batch was acked — on a durable DB, fsync'd to the
// WAL before the response was written, so an acked batch survives any
// crash or shutdown. A failed batch stops the stream: earlier batches
// stay applied (and durable), and the 4xx ErrorResponse names the batch
// index and its ops line.
type ApplyResponse struct {
	Batches int    `json:"batches"`
	Ops     int    `json:"ops"`
	Epoch   uint64 `json:"epoch"`
	// DurableSeq is the WAL sequence acked through (0 on in-memory DBs).
	DurableSeq uint64 `json:"durable_seq,omitempty"`
	ElapsedUs  int64  `json:"elapsed_us"`
	RequestID  string `json:"request_id,omitempty"`
}

// StatsResponse is the body of GET /v1/stats: one consistent
// operational snapshot of the daemon.
type StatsResponse struct {
	// Graph shape of the current snapshot.
	Nodes  int `json:"nodes"`
	Edges  int `json:"edges"`
	Size   int `json:"size"`
	Labels int `json:"labels"`
	// Epoch is the current snapshot's publish epoch.
	Epoch         uint64             `json:"epoch"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Admission     AdmissionStats     `json:"admission"`
	Tenants       []TenantStats      `json:"tenants,omitempty"`
	PlanCache     rbq.PlanCacheStats `json:"plan_cache"`
	Mutation      rbq.MutationStats  `json:"mutation"`
	Recovery      rbq.RecoveryStats  `json:"recovery"`
}

// ErrorResponse is the body of every non-2xx answer. The governance
// telemetry is still attached where it exists — a 504 reports the
// effective α the evaluation was running with when the deadline fired
// (the promised "partial telemetry": the client learns what degradation
// it was already paying before deciding how to retry), and a 429
// carries RetryAfterMs alongside the Retry-After header.
type ErrorResponse struct {
	Error        string      `json:"error"`
	Code         int         `json:"code"`
	RetryAfterMs int64       `json:"retry_after_ms,omitempty"`
	Governance   *Governance `json:"governance,omitempty"`
	ElapsedUs    int64       `json:"elapsed_us,omitempty"`
	// Batches/Ops report partial /v1/apply progress: how much of the
	// stream landed (and is durable) before the failing batch.
	Batches   int    `json:"batches,omitempty"`
	Ops       int    `json:"ops,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// SlowEntry is one slow-query record: a request that ran past the
// configured threshold, was α-clamped, or hit its deadline. Entries go
// to the slow-query log (one JSON line each) and a bounded in-memory
// ring served at RouteDebugSlow.
type SlowEntry struct {
	TS        string `json:"ts"`
	RequestID string `json:"request_id"`
	Route     string `json:"route"`
	Tenant    string `json:"tenant"`
	// Pattern is the query's textual pattern (batches report a summary).
	Pattern string `json:"pattern,omitempty"`
	Code    int    `json:"code"`
	// Reason is why the entry exists: "threshold" (elapsed ≥ SlowQuery),
	// "deadline" (504) or "clamped" (α degraded).
	Reason     string      `json:"reason"`
	ElapsedUs  int64       `json:"elapsed_us"`
	Governance *Governance `json:"governance,omitempty"`
	// Trace is the request's span tree; slow-query capture forces tracing
	// on /v1/query so the phase breakdown is always available here even
	// when the client did not ask for it.
	Trace *rbq.Trace `json:"trace,omitempty"`
}

// SlowResponse is the body of GET /v1/debug/slow: the retained slow
// queries, most recent first.
type SlowResponse struct {
	// Threshold echoes the configured slow-query threshold in
	// milliseconds (0 = capture disabled).
	ThresholdMs int64       `json:"threshold_ms"`
	Entries     []SlowEntry `json:"entries"`
}

// parseSemantics maps the wire form to the Request axis.
func parseSemantics(s string) (rbq.Semantics, bool) {
	switch s {
	case "", "sim", "simulation":
		return rbq.Simulation, true
	case "sub", "subgraph":
		return rbq.Subgraph, true
	}
	return 0, false
}

// parseMode maps the wire form to the Request axis.
func parseMode(s string) (rbq.Mode, bool) {
	switch s {
	case "", "bounded":
		return rbq.Bounded, true
	case "exact":
		return rbq.Exact, true
	case "unanchored":
		return rbq.Unanchored, true
	}
	return 0, false
}
