package server

// Serving-tier observability: request-ID correlation, the trace opt-in,
// and slow-query capture.
//
// Every request gets a correlation id — propagated from X-Request-ID or
// generated — set on the response header (which is also where the
// handlers read it back: no context value, no request copy), echoed in
// the body, and stamped into the access log. When
// slow-query capture is enabled (Config.SlowQuery > 0), /v1/query runs
// with tracing forced on so a request that crosses the threshold, gets
// α-clamped, or 504s leaves a full phase breakdown behind: one JSON
// line on the slow log and one entry in a bounded in-memory ring
// served at /v1/debug/slow.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rbq"
)

// requestIDKey is RequestIDHeader in the canonical form net/http keys
// header maps by: Get and Set with it skip the per-call canonicalization,
// which allocates for a name ("…-ID") that is not canonical as written.
var requestIDKey = http.CanonicalHeaderKey(RequestIDHeader)

// reqSeq backs the fallback id when the system's entropy source fails.
var reqSeq atomic.Uint64

// newRequestID mints a 16-hex-char correlation id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-" + strconv.FormatUint(reqSeq.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}

// requestIDOf returns the id the middleware set on w, or "".
func requestIDOf(w http.ResponseWriter) string {
	return w.Header().Get(requestIDKey)
}

// withRequestID is the outermost middleware: it resolves the request's
// correlation id (client-supplied or generated) and sets it on the
// response header, where the handlers, the access log and the
// slow-query capture read it (requestIDOf).
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDKey)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(requestIDKey, id)
		next.ServeHTTP(w, r)
	})
}

// traceRequested reports whether the client opted into span tracing.
func traceRequested(r *http.Request) bool {
	switch r.Header.Get(TraceHeader) {
	case "1", "true", "on":
		return true
	}
	return r.URL.Query().Get("trace") == "1"
}

// slowRing retains the most recent slow-query entries. Bounded: the
// ring overwrites oldest-first, so a pathological workload cannot grow
// the debug surface without limit.
type slowRing struct {
	mu   sync.Mutex
	buf  []SlowEntry
	next int
	n    int
}

func newSlowRing(size int) *slowRing {
	return &slowRing{buf: make([]SlowEntry, size)}
}

func (sr *slowRing) add(e SlowEntry) {
	sr.mu.Lock()
	sr.buf[sr.next] = e
	sr.next = (sr.next + 1) % len(sr.buf)
	if sr.n < len(sr.buf) {
		sr.n++
	}
	sr.mu.Unlock()
}

// entries returns the retained entries, most recent first.
func (sr *slowRing) entries() []SlowEntry {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	out := make([]SlowEntry, 0, sr.n)
	for i := 1; i <= sr.n; i++ {
		out = append(out, sr.buf[(sr.next-i+len(sr.buf))%len(sr.buf)])
	}
	return out
}

// slowReason classifies a finished request for slow-query capture;
// "" means not slow.
func (s *Server) slowReason(code int, elapsed time.Duration, gov *Governance) string {
	switch {
	case s.cfg.SlowQuery <= 0:
		return ""
	case elapsed >= s.cfg.SlowQuery:
		return "threshold"
	case code == http.StatusGatewayTimeout:
		return "deadline"
	case gov != nil && gov.Clamped:
		return "clamped"
	}
	return ""
}

// slowQuery records one slow request: ring, log line, metric.
func (s *Server) slowQuery(w http.ResponseWriter, route, tenant, pattern string, code int, started time.Time, gov *Governance, tr *rbq.Trace) {
	elapsed := time.Since(started)
	reason := s.slowReason(code, elapsed, gov)
	if reason == "" {
		return
	}
	e := SlowEntry{
		TS:         time.Now().UTC().Format(time.RFC3339Nano),
		RequestID:  requestIDOf(w),
		Route:      route,
		Tenant:     tenant,
		Pattern:    pattern,
		Code:       code,
		Reason:     reason,
		ElapsedUs:  elapsed.Microseconds(),
		Governance: gov,
		Trace:      tr,
	}
	s.slow.add(e)
	s.met.slowQuery(reason)
	if s.cfg.SlowLog == nil {
		return
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	s.logMu.Lock()
	s.cfg.SlowLog.Write(buf)
	s.logMu.Unlock()
}

// handleDebugSlow serves the retained slow queries. Operational route:
// bypasses admission and keeps answering while draining, exactly like
// /metrics — the debug surface must work best when the server is worst.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	tenant := tenantOf(r)
	writeJSON(w, http.StatusOK, SlowResponse{
		ThresholdMs: s.cfg.SlowQuery.Milliseconds(),
		Entries:     s.slow.entries(),
	})
	s.finish(RouteDebugSlow, w, r, tenant, http.StatusOK, started, nil)
}
