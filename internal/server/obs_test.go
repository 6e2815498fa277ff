package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// postWith posts v with extra headers and decodes into out, returning
// the status code and response headers.
func postWith(t testing.TB, url string, hdr map[string]string, v, out any) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, val := range hdr {
		req.Header.Set(k, val)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode, resp.Header
}

// A client-supplied X-Request-ID is propagated into the response header,
// the response body and the access log; an absent one is generated. The
// one id joins all the surfaces.
func TestRequestIDCorrelation(t *testing.T) {
	var accessLog bytes.Buffer
	s, ts := newTestServer(t, Config{AccessLog: &accessLog})

	var res QueryResponse
	code, hdr := postWith(t, ts.URL+RouteQuery, map[string]string{RequestIDHeader: "corr-42"},
		QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if hdr.Get(RequestIDHeader) != "corr-42" {
		t.Fatalf("response header id %q, want corr-42", hdr.Get(RequestIDHeader))
	}
	if res.RequestID != "corr-42" {
		t.Fatalf("response body id %q, want corr-42", res.RequestID)
	}
	s.flushAccessLog() // lines are batched; do not wait out logFlushEvery
	if !strings.Contains(accessLog.String(), `"request_id":"corr-42"`) {
		t.Fatalf("access log missing the id:\n%s", accessLog.String())
	}

	// No id supplied: one is minted and echoed everywhere the same.
	var res2 QueryResponse
	_, hdr2 := postWith(t, ts.URL+RouteQuery, nil, QueryRequest{Pattern: patText, Alpha: 0.9}, &res2)
	if res2.RequestID == "" || res2.RequestID != hdr2.Get(RequestIDHeader) {
		t.Fatalf("generated id: body %q, header %q", res2.RequestID, hdr2.Get(RequestIDHeader))
	}
	if res2.RequestID == "corr-42" {
		t.Fatal("generated id collided with the supplied one")
	}

	// Errors carry it too.
	var er ErrorResponse
	code, _ = postWith(t, ts.URL+RouteQuery, map[string]string{RequestIDHeader: "corr-err"},
		QueryRequest{Pattern: "not a pattern"}, &er)
	if code != http.StatusBadRequest || er.RequestID != "corr-err" {
		t.Fatalf("error response: status %d, id %q", code, er.RequestID)
	}
}

// The trace opt-in: X-Rbq-Trace (or ?trace=1) attaches the span tree,
// with the serving tier's admission span prepended; without the opt-in
// the response carries none.
func TestQueryTraceOptIn(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var plain QueryResponse
	postWith(t, ts.URL+RouteQuery, nil, QueryRequest{Pattern: patText, Alpha: 0.9}, &plain)
	if plain.Trace != nil {
		t.Fatal("untraced response carries a trace")
	}

	var res QueryResponse
	code, _ := postWith(t, ts.URL+RouteQuery, map[string]string{TraceHeader: "1"},
		QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	if code != http.StatusOK || res.Trace == nil || res.Trace.Root == nil {
		t.Fatalf("status %d, trace %+v", code, res.Trace)
	}
	if res.Trace.RequestID != res.RequestID {
		t.Fatalf("trace id %q, response id %q", res.Trace.RequestID, res.RequestID)
	}
	if len(res.Trace.Root.Children) == 0 || res.Trace.Root.Children[0].Name != "admission" {
		t.Fatalf("first child is not the admission span: %+v", res.Trace.Root.Children)
	}
	var phases []string
	for _, c := range res.Trace.Root.Children {
		phases = append(phases, c.Name)
	}
	for _, want := range []string{"admission", "plan", "exec"} {
		found := false
		for _, p := range phases {
			found = found || p == want
		}
		if !found {
			t.Fatalf("trace phases %v missing %q", phases, want)
		}
	}

	// Query-parameter form works too.
	var res2 QueryResponse
	postWith(t, ts.URL+RouteQuery+"?trace=1", nil, QueryRequest{Pattern: patText, Alpha: 0.9}, &res2)
	if res2.Trace == nil {
		t.Fatal("?trace=1 did not attach a trace")
	}
}

// Batch items each carry their own span tree stamped with shard
// identity when the batch opts in.
func TestBatchTraceOptIn(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	br := BatchRequest{Alpha: 0.9}
	for i := 0; i < 4; i++ {
		br.Items = append(br.Items, BatchItem{Pattern: patText, Anchor: 0})
	}
	var out BatchResponse
	code, _ := postWith(t, ts.URL+RouteBatch+"?trace=1", nil, br, &out)
	if code != http.StatusOK || len(out.Results) != 4 {
		t.Fatalf("status %d, %d results", code, len(out.Results))
	}
	if out.RequestID == "" {
		t.Fatal("batch response has no request id")
	}
	for i, res := range out.Results {
		if res.Trace == nil || res.Trace.Root == nil {
			t.Fatalf("item %d has no trace", i)
		}
		idx, ok := res.Trace.Root.Counter("batch_index")
		if !ok || int(idx) != i {
			t.Fatalf("item %d batch_index = %d,%v", i, idx, ok)
		}
	}
}

// Slow-query capture: with a zero-ish threshold every query lands in
// the ring (with its forced trace), on the slow log, and on
// /v1/debug/slow — all joined by the request id.
func TestSlowQueryCapture(t *testing.T) {
	var slowLog bytes.Buffer
	_, ts := newTestServer(t, Config{SlowQuery: time.Nanosecond, SlowLog: &slowLog})

	var res QueryResponse
	code, _ := postWith(t, ts.URL+RouteQuery, map[string]string{RequestIDHeader: "slow-1"},
		QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// The client did not opt into tracing, so the response stays lean...
	if res.Trace != nil {
		t.Fatal("forced slow-query tracing leaked into the response")
	}

	// ...but the debug surface has the full breakdown.
	resp, err := http.Get(ts.URL + RouteDebugSlow)
	if err != nil {
		t.Fatal(err)
	}
	var sr SlowResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Entries) != 1 {
		t.Fatalf("%d slow entries, want 1", len(sr.Entries))
	}
	e := sr.Entries[0]
	if e.RequestID != "slow-1" || e.Route != RouteQuery || e.Reason != "threshold" {
		t.Fatalf("entry %+v", e)
	}
	if e.Trace == nil || e.Trace.Root == nil {
		t.Fatal("slow entry has no trace")
	}
	if e.Governance == nil || e.Governance.Tenant != DefaultTenant {
		t.Fatalf("entry governance %+v", e.Governance)
	}
	if e.Pattern != patText {
		t.Fatalf("entry pattern %q", e.Pattern)
	}

	// The slow log got the same entry as a JSON line.
	var logged SlowEntry
	if err := json.Unmarshal(slowLog.Bytes(), &logged); err != nil {
		t.Fatalf("slow log line: %v\n%s", err, slowLog.String())
	}
	if logged.RequestID != "slow-1" || logged.Trace == nil {
		t.Fatalf("logged entry %+v", logged)
	}
}

// The slow ring is bounded and returns newest-first.
func TestSlowRingBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{SlowQuery: time.Nanosecond, SlowRingSize: 4})
	for i := 0; i < 10; i++ {
		var res QueryResponse
		postWith(t, ts.URL+RouteQuery, map[string]string{RequestIDHeader: fmt.Sprintf("r-%d", i)},
			QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	}
	resp, err := http.Get(ts.URL + RouteDebugSlow)
	if err != nil {
		t.Fatal(err)
	}
	var sr SlowResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sr.Entries) != 4 {
		t.Fatalf("%d entries, ring size 4", len(sr.Entries))
	}
	for i, e := range sr.Entries {
		if want := fmt.Sprintf("r-%d", 9-i); e.RequestID != want {
			t.Fatalf("entry %d id %q, want %s (newest first)", i, e.RequestID, want)
		}
	}
}

// A draining server keeps its debug surface up.
func TestDebugSlowWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{SlowQuery: time.Nanosecond})
	var res QueryResponse
	postWith(t, ts.URL+RouteQuery, nil, QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	s.BeginShutdown()
	resp, err := http.Get(ts.URL + RouteDebugSlow)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug route returned %d while draining", resp.StatusCode)
	}
}

// TestMetricsLint scrapes /metrics after mixed traffic and checks the
// exposition is well-formed Prometheus text: every family declared with
// a valid TYPE before its samples, every value a float, no duplicate
// series, and the label alphabet bounded.
func TestMetricsLint(t *testing.T) {
	var slowLog bytes.Buffer
	_, ts := newTestServer(t, Config{SlowQuery: time.Nanosecond, SlowLog: &slowLog, TenantRate: 1000})

	// Mixed traffic: ok queries under several tenants, a 400, a batch,
	// an apply, a stats scrape.
	for i := 0; i < 3; i++ {
		var res QueryResponse
		postWith(t, ts.URL+RouteQuery, map[string]string{TenantHeader: fmt.Sprintf("t%d", i)},
			QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	}
	var er ErrorResponse
	postWith(t, ts.URL+RouteQuery, nil, QueryRequest{Pattern: "garbage"}, &er)
	var bres BatchResponse
	postWith(t, ts.URL+RouteBatch, nil, BatchRequest{Alpha: 0.9, Items: []BatchItem{{Pattern: patText, Anchor: 0}}}, &bres)
	resp, err := http.Post(ts.URL+RouteApply, "text/plain", strings.NewReader("node NEW\napply\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + RouteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lintPrometheus(t, string(body))

	// The families this PR promises are present.
	for _, fam := range []string{
		"rbqd_requests_total", "rbqd_request_seconds", "rbqd_slow_queries_total",
		"rbqd_plan_cache_total", "rbqd_last_compact_seconds", "rbqd_last_compact_touched_nodes",
		"rbqd_go_goroutines", "rbqd_go_heap_alloc_bytes", "rbqd_go_gc_pause_seconds_total",
		"rbqd_uptime_seconds", "rbqd_build_info",
	} {
		if !strings.Contains(string(body), "# TYPE "+fam+" ") {
			t.Errorf("missing family %s", fam)
		}
	}
}

// lintPrometheus parses a text-format exposition and fails on structural
// defects: samples without a preceding TYPE, invalid types, unparsable
// values, duplicate series, unbounded label alphabets.
func lintPrometheus(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	seen := map[string]bool{}
	labelValues := map[string]map[string]bool{} // label name → value set
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "# HELP") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("line %d: malformed TYPE: %s", ln+1, line)
				continue
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: invalid type %q", ln+1, parts[3])
			}
			if _, dup := types[parts[2]]; dup {
				t.Errorf("line %d: family %s declared twice", ln+1, parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unknown comment form: %s", ln+1, line)
			continue
		}
		// Sample: name{labels} value — split the value off the right.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("line %d: no value: %s", ln+1, line)
			continue
		}
		series, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("line %d: bad value %q", ln+1, val)
		}
		if seen[series] {
			t.Errorf("line %d: duplicate series %s", ln+1, series)
		}
		seen[series] = true
		name := series
		var labels string
		if b := strings.IndexByte(series, '{'); b >= 0 {
			name = series[:b]
			labels = strings.TrimSuffix(series[b+1:], "}")
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && types[trimmed] == "histogram" {
				base = trimmed
			}
		}
		typ, declared := types[base]
		if !declared {
			t.Errorf("line %d: series %s has no # TYPE declaration", ln+1, series)
			continue
		}
		if (strings.HasSuffix(name, "_bucket") && typ != "histogram") && base == name {
			t.Errorf("line %d: %s looks like a bucket of a non-histogram", ln+1, name)
		}
		for _, kv := range splitLabels(labels) {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				t.Errorf("line %d: malformed label %q", ln+1, kv)
				continue
			}
			k, v := kv[:eq], kv[eq+1:]
			if labelValues[k] == nil {
				labelValues[k] = map[string]bool{}
			}
			labelValues[k][v] = true
		}
	}
	// The tenant label alphabet must stay bounded (maxMetricTenants plus
	// the fold-over "other"); this scrape is far under the cap, so any
	// excess means the bound broke.
	if n := len(labelValues["tenant"]); n > maxMetricTenants+1 {
		t.Errorf("tenant label has %d values, cap is %d", n, maxMetricTenants+1)
	}
}

// splitLabels splits `k="v",k2="v2"` at top-level commas (values are
// quoted, and rbqd emits no escaped quotes in label values).
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// TestStatsCompactionTelemetry: /v1/stats surfaces the compaction
// story — which mode the last compaction ran in, how long it took and
// how many nodes it touched — and /metrics mirrors it, so operators
// can see splice-vs-rebuild behavior without shell access.
func TestStatsCompactionTelemetry(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	stream := "node Extra\nedge 1 7\napply\n"
	resp, err := http.Post(ts.URL+RouteApply, "text/plain", strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := s.db.Compact(); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mu := st.Mutation
	if mu.Compactions < 1 || mu.Mode == "" || mu.LastCompactNs <= 0 {
		t.Fatalf("mutation stats missing compaction telemetry: %+v", mu)
	}
	if mu.Mode == "incremental" && mu.LastCompactTouchedNodes == 0 {
		t.Fatalf("incremental compaction reported zero touched nodes: %+v", mu)
	}

	resp, err = http.Get(ts.URL + RouteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, fmt.Sprintf("rbqd_compact_mode{mode=%q} 1", mu.Mode)) {
		t.Fatalf("metrics missing rbqd_compact_mode{mode=%q}:\n%s", mu.Mode, text)
	}
	if !strings.Contains(text, "rbqd_last_compact_seconds ") {
		t.Fatalf("metrics missing rbqd_last_compact_seconds:\n%s", text)
	}
}
