package server

// The HTTP tier: one Server wraps one rbq.DB behind /v1/query,
// /v1/query_batch, /v1/apply, /v1/stats, /healthz and /metrics. Every
// query-bearing request flows admission → tenant budget → context
// deadline → engine:
//
//	acquire slot (or queue, bounded; or 429 + Retry-After)
//	   └─ clamp α: tenant bucket factor × saturation halving, ≥ floor
//	        └─ ctx with deadline → DB.Query (cooperative cancellation)
//	             └─ charge tenant bucket with Result.Visited actuals
//
// The operational routes (/v1/stats, /healthz, /metrics) bypass
// admission: the observability surface must keep answering exactly when
// the serving surface is saturated.
//
// Graceful shutdown is a two-phase contract with the daemon (cmd/rbqd):
// BeginShutdown flips the server to draining — new requests are
// answered 503 + Connection: close while in-flight evaluations finish —
// and http.Server.Shutdown performs the actual drain; the caller then
// Close()s the DB. Acked /v1/apply batches were fsync'd to the WAL
// before their response was written, so a drain loses nothing.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rbq"
	"rbq/internal/delta"
	"rbq/internal/obs"
)

// Config tunes a Server. The zero value serves with the documented
// defaults; New never mutates it.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (default
	// 4×GOMAXPROCS, minimum 1). MaxQueue bounds requests waiting for a
	// slot (default = MaxInFlight; 0 disables queueing — saturation
	// rejects immediately). MaxQueueWait caps how long a queued request
	// may wait (default 2s); with the per-request deadline, it is why no
	// request ever waits unboundedly.
	MaxInFlight  int
	MaxQueue     int
	MaxQueueWait time.Duration

	// DefaultTimeout is the evaluation deadline applied when the request
	// carries none (default 30s); MaxTimeout caps client-supplied
	// deadlines (default 2m). Both thread into the engines' cooperative
	// interrupt probes via context.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// TenantRate is each tenant's α budget in visits/second; 0 disables
	// tenant budgeting. TenantBurst is the bucket capacity (default
	// 4×rate): the burst a quiet tenant may spend at once, and the unit
	// debt is measured in once overdrawn.
	TenantRate  float64
	TenantBurst float64

	// AlphaFloor is the lower bound clamping may push α to (default
	// 1e-5): degraded answers stay answers.
	AlphaFloor float64

	// BatchWorkers shards /v1/query_batch items (0 = one per CPU). A
	// batch holds one admission slot and fans out internally.
	BatchWorkers int

	// MaxBodyBytes bounds request bodies (default 16 MiB).
	MaxBodyBytes int64

	// AccessLog receives one JSON line per request (nil = no log).
	AccessLog io.Writer

	// SlowQuery enables slow-query capture: a /v1/query or
	// /v1/query_batch request that runs at least this long, gets its α
	// clamped, or hits its deadline (504) is recorded — one JSON line to
	// SlowLog and one entry in a bounded ring served at /v1/debug/slow.
	// While enabled, /v1/query runs with tracing forced on so every
	// captured entry carries the full phase breakdown. 0 disables.
	SlowQuery time.Duration
	// SlowLog receives the slow-query lines (nil = ring only).
	SlowLog io.Writer
	// SlowRingSize bounds the /v1/debug/slow ring (default 128).
	SlowRingSize int

	// beforeEval, when set, runs after admission + clamping and before
	// the evaluation; integration tests use it to hold requests in
	// flight deterministically.
	beforeEval func(route, tenant string)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.AlphaFloor <= 0 {
		c.AlphaFloor = 1e-5
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.SlowRingSize <= 0 {
		c.SlowRingSize = 128
	}
	return c
}

// Server serves one DB. Construct with New, mount Handler on an
// http.Server, and on shutdown call BeginShutdown before
// http.Server.Shutdown.
type Server struct {
	db      *rbq.DB
	cfg     Config
	adm     *admission
	ten     *tenantBuckets
	met     *metrics
	mux     *http.ServeMux
	handler http.Handler
	slow    *slowRing
	start   time.Time

	closing atomic.Bool

	// logMu orders every log write. Access-log lines collect in logBuf
	// and reach cfg.AccessLog at logFlushBytes, logFlushEvery after the
	// first unwritten line (logTimer, armed by the line that finds the
	// buffer empty), and at once while draining; slow-query lines are
	// written through.
	logMu    sync.Mutex
	logBuf   []byte
	logTimer *time.Timer
}

// The access log is written in batches: one write(2) per request was 3%
// of the daemon's CPU on light queries. A line waits at most
// logFlushEvery, and a batch is at most logFlushBytes plus one line.
const (
	logFlushBytes = 32 << 10
	logFlushEvery = 50 * time.Millisecond
)

// reqScratch is the pooled per-request buffer pair: the request body as
// read, and the encoded response.
type reqScratch struct {
	body, out []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &reqScratch{body: make([]byte, 0, 1<<10), out: make([]byte, 0, 1<<10)}
}}

// maxPooledBuf keeps one large batch from pinning its buffers in the
// pool: a scratch that grew past it is dropped, not returned.
const maxPooledBuf = 1 << 20

func putScratch(sc *reqScratch) {
	if cap(sc.body) <= maxPooledBuf && cap(sc.out) <= maxPooledBuf {
		scratchPool.Put(sc)
	}
}

// New builds a Server over db. The DB may be in-memory (NewDB) or
// durable (OpenDB); the server does not own it until the daemon's
// shutdown sequence closes it.
func New(db *rbq.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:    db,
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.MaxQueueWait),
		ten:   newTenantBuckets(cfg.TenantRate, cfg.TenantBurst),
		met:   newMetrics(),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.slow = newSlowRing(cfg.SlowRingSize)
	s.mux.HandleFunc(RouteQuery, s.handleQuery)
	s.mux.HandleFunc(RouteBatch, s.handleBatch)
	s.mux.HandleFunc(RouteApply, s.handleApply)
	s.mux.HandleFunc(RouteStats, s.handleStats)
	s.mux.HandleFunc(RouteHealth, s.handleHealth)
	s.mux.HandleFunc(RouteMetrics, s.handleMetrics)
	s.mux.HandleFunc(RouteDebugSlow, s.handleDebugSlow)
	s.handler = s.withRequestID(s.mux)
	return s
}

// Handler returns the server's root handler: the route mux behind the
// request-ID middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// BeginShutdown flips the server to draining: subsequent serving-route
// requests are answered 503 + Connection: close (so keep-alive clients
// move on) while in-flight evaluations run to completion under
// http.Server.Shutdown. Idempotent. The operational routes keep
// answering; /healthz turns 503 so load balancers stop routing here.
// The access log is flushed and from here on written line by line, so
// when http.Server.Shutdown returns every drained request's line has
// reached the writer and the caller may close it.
func (s *Server) BeginShutdown() {
	s.closing.Store(true)
	s.flushAccessLog()
}

// Draining reports whether BeginShutdown was called.
func (s *Server) Draining() bool { return s.closing.Load() }

// AdmissionStats returns the admission controller's counters.
func (s *Server) AdmissionStats() AdmissionStats { return s.adm.stats() }

// TenantStats returns every tracked tenant's budget snapshot.
func (s *Server) TenantStats() []TenantStats { return s.ten.stats() }

// tenantOf extracts the request's budget bucket.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// writeJSON writes v with status code: the reflection encoder, for the
// responses off the hot path.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeBody writes an already encoded 200 body.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client that went away is not the server's error
}

// errBodyTooLarge refuses a request body past MaxBodyBytes.
var errBodyTooLarge = errors.New("body exceeds the server's limit")

// decodeBody reads the request body into sc's pooled buffer and
// unmarshals it into v. Decoding is encoding/json's: bytes after the
// JSON value, other than white space, are an error.
func (s *Server) decodeBody(r *http.Request, sc *reqScratch, v any) error {
	buf := bytes.NewBuffer(sc.body[:0])
	_, err := buf.ReadFrom(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	sc.body = buf.Bytes()
	if err != nil {
		return err
	}
	if int64(len(sc.body)) > s.cfg.MaxBodyBytes {
		return errBodyTooLarge
	}
	return json.Unmarshal(sc.body, v)
}

// accessLog records one structured line per request; see Server.logMu
// for when it reaches the writer.
func (s *Server) accessLog(route, method, tenant, remote, reqID string, code int, elapsed time.Duration, gov *Governance) {
	if s.cfg.AccessLog == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	first := len(s.logBuf) == 0
	s.logBuf = appendAccessLine(s.logBuf, time.Now(), reqID, route, method, tenant, remote, code, elapsed.Microseconds(), gov)
	switch {
	case len(s.logBuf) >= logFlushBytes || s.closing.Load():
		s.flushLogLocked()
	case first && s.logTimer == nil:
		s.logTimer = time.AfterFunc(logFlushEvery, s.flushAccessLog)
	case first:
		s.logTimer.Reset(logFlushEvery)
	}
}

// flushAccessLog writes out the buffered access-log lines.
func (s *Server) flushAccessLog() {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.flushLogLocked()
}

func (s *Server) flushLogLocked() {
	if len(s.logBuf) == 0 {
		return
	}
	_, _ = s.cfg.AccessLog.Write(s.logBuf) // a failing log must not fail requests
	s.logBuf = s.logBuf[:0]
}

// finish records metrics + access log for one request.
func (s *Server) finish(route string, w http.ResponseWriter, r *http.Request, tenant string, code int, started time.Time, gov *Governance) {
	elapsed := time.Since(started)
	s.met.observe(route, tenant, code, elapsed.Seconds())
	s.accessLog(route, r.Method, tenant, r.RemoteAddr, requestIDOf(w), code, elapsed, gov)
}

// fail writes an ErrorResponse and records the request.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, route, tenant string, started time.Time, code int, resp ErrorResponse) {
	resp.Code = code
	resp.ElapsedUs = time.Since(started).Microseconds()
	resp.RequestID = requestIDOf(w)
	if resp.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((resp.RetryAfterMs+999)/1000, 10))
	}
	writeJSON(w, code, resp)
	s.finish(route, w, r, tenant, code, started, resp.Governance)
}

// drainCheck answers draining servers' serving-route requests with 503.
func (s *Server) drainCheck(w http.ResponseWriter, r *http.Request, route, tenant string, started time.Time) bool {
	if !s.closing.Load() {
		return false
	}
	w.Header().Set("Connection", "close")
	s.fail(w, r, route, tenant, started, http.StatusServiceUnavailable, ErrorResponse{
		Error: "server is shutting down", RetryAfterMs: 1000,
	})
	return true
}

// evalDeadline derives the request's evaluation context: the client's
// timeout_ms capped at MaxTimeout, or DefaultTimeout when absent; the
// base is r.Context(), so a disconnecting client cancels its own work.
func (s *Server) evalDeadline(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// admit runs the admission + α-governance prologue shared by query and
// batch. On success the caller owns an execution slot (release via
// s.adm.release()) and gov is filled through the clamp decision; on
// failure the response has been written.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request, route, tenant string, started time.Time, alpha float64) (gov Governance, ok bool) {
	queued, err := s.adm.acquire(ctx)
	if err != nil {
		switch {
		case errors.Is(err, ErrOverflow), errors.Is(err, ErrQueueWait):
			s.fail(w, r, route, tenant, started, http.StatusTooManyRequests, ErrorResponse{
				Error:        fmt.Sprintf("admission: %v", err),
				RetryAfterMs: s.adm.retryAfter().Milliseconds(),
			})
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, r, route, tenant, started, http.StatusGatewayTimeout, ErrorResponse{
				Error:      "deadline exceeded while queued for admission",
				Governance: &Governance{Tenant: tenant, RequestedAlpha: alpha, Queued: true},
			})
		default: // client went away while queued
			s.finish(route, w, r, tenant, 499, started, nil)
		}
		return Governance{}, false
	}
	eff, clamped, reason := clampAlpha(alpha, s.ten.factor(tenant), queued, s.cfg.AlphaFloor)
	if clamped {
		s.met.clamp(reason)
	}
	return Governance{
		Tenant:         tenant,
		RequestedAlpha: alpha,
		EffectiveAlpha: eff,
		Clamped:        clamped,
		ClampReason:    reason,
		Queued:         queued,
	}, true
}

// chargeTenant debits the bucket and attaches the balance to gov.
func (s *Server) chargeTenant(gov *Governance, visits int) {
	gov.VisitsCharged = visits
	if visits <= 0 {
		gov.VisitsCharged = exactModeCharge
	}
	if !s.ten.enabled() {
		gov.VisitsCharged = 0
		return
	}
	bal := s.ten.charge(gov.Tenant, visits, gov.Clamped)
	gov.BudgetRemaining = &bal
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	tenant := tenantOf(r)
	if r.Method != http.MethodPost {
		s.fail(w, r, RouteQuery, tenant, started, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	if s.drainCheck(w, r, RouteQuery, tenant, started) {
		return
	}
	sc := scratchPool.Get().(*reqScratch)
	defer putScratch(sc)
	var qr QueryRequest
	if err := s.decodeBody(r, sc, &qr); err != nil {
		s.fail(w, r, RouteQuery, tenant, started, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	// Through the plan cache's text index: a template the cache holds is
	// not parsed again.
	q, err := s.db.ParsePattern(qr.Pattern)
	if err != nil {
		s.fail(w, r, RouteQuery, tenant, started, http.StatusBadRequest, ErrorResponse{Error: "bad pattern: " + err.Error()})
		return
	}
	req, errMsg := buildRequest(qr)
	if errMsg != "" {
		s.fail(w, r, RouteQuery, tenant, started, http.StatusBadRequest, ErrorResponse{Error: errMsg})
		return
	}
	// Trace when the client asks — or when slow-query capture is armed,
	// so a request that turns out slow has its phase breakdown on record.
	clientTrace := traceRequested(r)
	req.WantTrace = clientTrace || s.cfg.SlowQuery > 0
	ctx, cancel := s.evalDeadline(r, qr.TimeoutMs)
	defer cancel()

	preAdmit := time.Now()
	gov, ok := s.admit(ctx, w, r, RouteQuery, tenant, started, req.Alpha)
	if !ok {
		return
	}
	admitWait := time.Since(preAdmit)
	req.Alpha = gov.EffectiveAlpha
	if s.cfg.beforeEval != nil {
		s.cfg.beforeEval(RouteQuery, tenant)
	}
	res, err := s.db.Query(ctx, q, req)
	s.adm.release()
	s.chargeTenant(&gov, res.Visited)
	s.decorateTrace(w, res.Trace, admitWait, &gov)
	if err != nil {
		s.slowQuery(w, RouteQuery, tenant, qr.Pattern, errCode(err), started, &gov, res.Trace)
		s.queryError(w, r, RouteQuery, tenant, started, err, &gov)
		return
	}
	s.slowQuery(w, RouteQuery, tenant, qr.Pattern, http.StatusOK, started, &gov, res.Trace)
	sc.out = appendQueryResponse(sc.out[:0], &res, time.Since(started).Microseconds(), &gov, requestIDOf(w), clientTrace)
	writeBody(w, sc.out)
	s.finish(RouteQuery, w, r, tenant, http.StatusOK, started, &gov)
}

// decorateTrace stamps the serving tier's view onto an engine trace:
// the correlation id and an admission span covering the slot wait (the
// engine cannot see either). The admission span is prepended so the
// tree reads in wall-clock order.
func (s *Server) decorateTrace(w http.ResponseWriter, tr *rbq.Trace, wait time.Duration, gov *Governance) {
	if tr == nil || tr.Root == nil {
		return
	}
	tr.RequestID = requestIDOf(w)
	adm := &obs.Span{Name: obs.PhaseAdmission, Dur: wait}
	if gov.Queued {
		adm.Add("queued", 1)
	}
	if gov.Clamped {
		adm.Add("clamped", 1)
	}
	tr.Root.Children = append([]*obs.Span{adm}, tr.Root.Children...)
}

// errCode maps an evaluation error to the status queryError will write.
func errCode(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	}
	return http.StatusBadRequest
}

// buildRequest maps the wire form onto rbq.Request; a non-empty second
// return is the 400 message.
func buildRequest(qr QueryRequest) (rbq.Request, string) {
	var req rbq.Request
	var ok bool
	if req.Semantics, ok = parseSemantics(qr.Semantics); !ok {
		return req, fmt.Sprintf("unknown semantics %q (want sim or sub)", qr.Semantics)
	}
	if req.Mode, ok = parseMode(qr.Mode); !ok {
		return req, fmt.Sprintf("unknown mode %q (want bounded, exact or unanchored)", qr.Mode)
	}
	req.Alpha = qr.Alpha
	req.MaxSteps = qr.MaxSteps
	if qr.Anchor != nil {
		req.Anchor = rbq.Pin(rbq.NodeID(*qr.Anchor))
	}
	return req, ""
}

// queryError maps an evaluation error to its status: deadline → 504
// with the partial telemetry the governance carries (the client learns
// the α its evaluation was degraded to before the deadline fired),
// client disconnect → 499 log-only, anything else → 400 (the request
// layer validates; evaluation itself does not fail).
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, route, tenant string, started time.Time, err error, gov *Governance) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, r, route, tenant, started, http.StatusGatewayTimeout, ErrorResponse{
			Error: "evaluation deadline exceeded", Governance: gov,
		})
	case errors.Is(err, context.Canceled):
		s.finish(route, w, r, tenant, 499, started, gov)
	default:
		s.fail(w, r, route, tenant, started, http.StatusBadRequest, ErrorResponse{
			Error: err.Error(), Governance: gov,
		})
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	tenant := tenantOf(r)
	if r.Method != http.MethodPost {
		s.fail(w, r, RouteBatch, tenant, started, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	if s.drainCheck(w, r, RouteBatch, tenant, started) {
		return
	}
	sc := scratchPool.Get().(*reqScratch)
	defer putScratch(sc)
	var br BatchRequest
	if err := s.decodeBody(r, sc, &br); err != nil {
		s.fail(w, r, RouteBatch, tenant, started, http.StatusBadRequest, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(br.Items) == 0 {
		s.fail(w, r, RouteBatch, tenant, started, http.StatusBadRequest, ErrorResponse{Error: "empty batch"})
		return
	}
	req, errMsg := buildRequest(QueryRequest{Semantics: br.Semantics, Mode: br.Mode, Alpha: br.Alpha, MaxSteps: br.MaxSteps})
	if errMsg != "" {
		s.fail(w, r, RouteBatch, tenant, started, http.StatusBadRequest, ErrorResponse{Error: errMsg})
		return
	}
	if req.Mode == rbq.Unanchored {
		s.fail(w, r, RouteBatch, tenant, started, http.StatusBadRequest, ErrorResponse{Error: "batch items are anchored; unanchored mode is /v1/query"})
		return
	}
	// Resolve per-item patterns through the plan cache's text index —
	// items of one cached template share one *Pattern, which QueryBatch
	// looks up once; a bad pattern fails only its own item.
	qs := make([]rbq.AnchoredQuery, len(br.Items))
	itemErr := make([]string, len(br.Items))
	for i, it := range br.Items {
		q, err := s.db.ParsePattern(it.Pattern)
		if err != nil {
			itemErr[i] = "bad pattern: " + err.Error()
			continue
		}
		qs[i] = rbq.AnchoredQuery{Q: q, At: rbq.NodeID(it.Anchor)}
	}
	// Batch tracing is per item (each item owns its span tree, stamped
	// with its shard identity), so it is client-opt-in only — slow-query
	// capture still records the batch, governance included, without the
	// per-item trees.
	clientTrace := traceRequested(r)
	req.WantTrace = clientTrace
	ctx, cancel := s.evalDeadline(r, br.TimeoutMs)
	defer cancel()

	preAdmit := time.Now()
	gov, ok := s.admit(ctx, w, r, RouteBatch, tenant, started, req.Alpha)
	if !ok {
		return
	}
	admitWait := time.Since(preAdmit)
	req.Alpha = gov.EffectiveAlpha
	if s.cfg.beforeEval != nil {
		s.cfg.beforeEval(RouteBatch, tenant)
	}
	// Items whose pattern failed to parse carry a nil Q; QueryBatch
	// zeroes them (nil-pattern compile failure) without touching the
	// rest, which is exactly the per-item contract.
	results, err := s.db.QueryBatch(ctx, qs, req, s.cfg.BatchWorkers)
	s.adm.release()
	visits := 0
	for _, res := range results {
		visits += res.Visited
	}
	s.chargeTenant(&gov, visits)
	batchDesc := ""
	if s.cfg.SlowQuery > 0 {
		batchDesc = fmt.Sprintf("batch: %d item(s)", len(br.Items))
	}
	if err != nil {
		s.slowQuery(w, RouteBatch, tenant, batchDesc, errCode(err), started, &gov, nil)
		s.queryError(w, r, RouteBatch, tenant, started, err, &gov)
		return
	}
	s.slowQuery(w, RouteBatch, tenant, batchDesc, http.StatusOK, started, &gov, nil)
	if clientTrace {
		for i := range results {
			s.decorateTrace(w, results[i].Trace, admitWait, &gov)
		}
	}
	sc.out = appendBatchResponse(sc.out[:0], results, itemErr, time.Since(started).Microseconds(), &gov, requestIDOf(w), clientTrace)
	writeBody(w, sc.out)
	s.finish(RouteBatch, w, r, tenant, http.StatusOK, started, &gov)
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	tenant := tenantOf(r)
	if r.Method != http.MethodPost {
		s.fail(w, r, RouteApply, tenant, started, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	if s.drainCheck(w, r, RouteApply, tenant, started) {
		return
	}
	// The body is the op-stream text format (internal/delta), the same
	// language the WAL and the CLI tooling speak. ReadBatches returns
	// the well-formed prefix alongside a parse error, so a damaged
	// stream still lands what it can — mirroring rbquery -mode update.
	batches, parseErr := delta.ReadBatches(io.LimitReader(r.Body, s.cfg.MaxBodyBytes))
	ctx, cancel := s.evalDeadline(r, 0)
	defer cancel()
	if _, err := s.adm.acquire(ctx); err != nil {
		// Reuse the admission error mapping; mutations are not α-clamped
		// (there is no α), only admitted or not.
		if errors.Is(err, ErrOverflow) || errors.Is(err, ErrQueueWait) {
			s.fail(w, r, RouteApply, tenant, started, http.StatusTooManyRequests, ErrorResponse{
				Error:        fmt.Sprintf("admission: %v", err),
				RetryAfterMs: s.adm.retryAfter().Milliseconds(),
			})
		} else if errors.Is(err, context.DeadlineExceeded) {
			s.fail(w, r, RouteApply, tenant, started, http.StatusGatewayTimeout, ErrorResponse{
				Error: "deadline exceeded while queued for admission",
			})
		} else {
			s.finish(RouteApply, w, r, tenant, 499, started, nil)
		}
		return
	}
	applied, ops := 0, 0
	var applyErr error
	for i, b := range batches {
		if err := ctx.Err(); err != nil {
			applyErr = fmt.Errorf("batch %d: %w", i, err)
			break
		}
		if err := s.db.Apply(b.Ops); err != nil {
			applyErr = fmt.Errorf("batch %d (ops line %d): %w", i, b.Line, err)
			break
		}
		applied++
		ops += len(b.Ops)
	}
	s.adm.release()
	ms := s.db.MutationStats()
	if applyErr != nil || parseErr != nil {
		code := http.StatusBadRequest
		msg := ""
		switch {
		case applyErr != nil && errors.Is(applyErr, rbq.ErrClosed):
			code = http.StatusServiceUnavailable
			msg = applyErr.Error()
		case applyErr != nil && errors.Is(applyErr, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
			msg = applyErr.Error()
		case applyErr != nil:
			msg = applyErr.Error()
		default:
			msg = "parse: " + parseErr.Error()
		}
		// Partial progress is progress: the response reports how many
		// batches landed (durably, on a persistent DB) before the failure.
		s.fail(w, r, RouteApply, tenant, started, code, ErrorResponse{
			Error: msg, Batches: applied, Ops: ops,
		})
		return
	}
	writeJSON(w, http.StatusOK, ApplyResponse{
		Batches:    applied,
		Ops:        ops,
		Epoch:      ms.Epoch,
		DurableSeq: ms.Seq,
		ElapsedUs:  time.Since(started).Microseconds(),
		RequestID:  requestIDOf(w),
	})
	s.finish(RouteApply, w, r, tenant, http.StatusOK, started, nil)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	tenant := tenantOf(r)
	g := s.db.Graph()
	ms := s.db.MutationStats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Nodes: g.NumNodes(), Edges: g.NumEdges(), Size: g.Size(), Labels: g.NumLabels(),
		Epoch:         ms.Epoch,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Admission:     s.adm.stats(),
		Tenants:       s.ten.stats(),
		PlanCache:     s.db.PlanCacheStats(),
		Mutation:      ms,
		Recovery:      s.db.RecoveryStats(),
	})
	s.finish(RouteStats, w, r, tenant, http.StatusOK, started, nil)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		w.Header().Set("Connection", "close")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, opSnapshot{
		admission: s.adm.stats(),
		tenants:   s.ten.stats(),
		plans:     s.db.PlanCacheStats(),
		mutation:  s.db.MutationStats(),
		uptime:    time.Since(s.start).Seconds(),
	})
}
