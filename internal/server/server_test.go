package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rbq"
)

// patText is the paper's Fig. 1 motif in rbq.ParsePattern form.
const patText = "node 0 Michael*\nnode 1 CC\nnode 2 HG\nnode 3 CL!\nedge 0 1\nedge 0 2\nedge 1 3\nedge 2 3\n"

// socialDB builds the small social graph the motif matches: one CL node
// (id 3) with both a CC and an HG parent, plus padding so α=0.9 covers
// the whole fragment.
func socialDB(t testing.TB) *rbq.DB {
	t.Helper()
	gb := rbq.NewGraphBuilder(8, 6)
	m := gb.AddNode("Michael")
	cc := gb.AddNode("CC")
	hg := gb.AddNode("HG")
	cl := gb.AddNode("CL")
	gb.AddEdge(m, cc)
	gb.AddEdge(m, hg)
	gb.AddEdge(cc, cl)
	gb.AddEdge(hg, cl)
	gb.AddNode("X")
	gb.AddNode("X")
	gb.AddNode("X")
	return rbq.NewDB(gb.Build())
}

// newTestServer stands one Server over a fresh social DB behind an
// httptest listener. The returned Server is the same instance, so tests
// can reach its unexported internals (clock injection, drain flag).
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(socialDB(t), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts v and decodes the response body into out, returning
// the status code.
func postJSON(t testing.TB, url, tenant string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func TestQueryRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var res QueryResponse
	code := postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.9}, &res)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(res.Matches) != 1 || res.Matches[0] != 3 {
		t.Fatalf("matches = %v, want [3]", res.Matches)
	}
	if !res.Complete {
		t.Fatalf("incomplete: %+v", res)
	}
	g := res.Governance
	if g.Tenant != DefaultTenant || g.Clamped || g.RequestedAlpha != 0.9 || g.EffectiveAlpha != 0.9 {
		t.Fatalf("governance = %+v", g)
	}
	if res.Visited <= 0 || res.FragmentSize > res.Budget {
		t.Fatalf("visited %d, |G_Q| %d of budget %d", res.Visited, res.FragmentSize, res.Budget)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"bad pattern", QueryRequest{Pattern: "nonsense", Alpha: 0.5}},
		{"bad semantics", QueryRequest{Pattern: patText, Semantics: "magic", Alpha: 0.5}},
		{"bad mode", QueryRequest{Pattern: patText, Mode: "psychic", Alpha: 0.5}},
		{"bad anchor", QueryRequest{Pattern: patText, Alpha: 0.5, Anchor: ptr(int64(999))}},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if code := postJSON(t, ts.URL+RouteQuery, "", tc.req, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %+v", tc.name, code, er)
		}
	}
	resp, err := http.Get(ts.URL + RouteQuery)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var res BatchResponse
	code := postJSON(t, ts.URL+RouteBatch, "team-a", BatchRequest{
		Items: []BatchItem{
			{Pattern: patText, Anchor: 0},
			{Pattern: "garbage", Anchor: 0},
		},
		Alpha: 0.9,
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d", len(res.Results))
	}
	if len(res.Results[0].Matches) != 1 || res.Results[0].Matches[0] != 3 {
		t.Fatalf("item 0 = %+v", res.Results[0])
	}
	if res.Results[1].Error == "" || len(res.Results[1].Matches) != 0 {
		t.Fatalf("item 1 should carry its parse error: %+v", res.Results[1])
	}
	if res.Governance.Tenant != "team-a" {
		t.Fatalf("governance = %+v", res.Governance)
	}
}

func TestApplyAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The graph has nodes 0–6; the batch's new CL node gets id 7.
	stream := "node CL\nedge 1 7\nedge 2 7\napply\nnode X\napply\n"
	resp, err := http.Post(ts.URL+RouteApply, "text/plain", strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var ar ApplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ar.Batches != 2 || ar.Ops != 4 {
		t.Fatalf("status %d, apply = %+v", resp.StatusCode, ar)
	}

	// The new CL node (id 7) has CC and HG parents: the motif now has a
	// second match visible to queries against the mutated snapshot.
	var qr QueryResponse
	if code := postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.9}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if len(qr.Matches) != 2 {
		t.Fatalf("matches after apply = %v, want [3 7]", qr.Matches)
	}
	if qr.Epoch == 0 {
		t.Fatalf("epoch should have advanced: %+v", qr)
	}

	statsResp, err := http.Get(ts.URL + RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Nodes != 9 || st.Edges != 6 {
		t.Fatalf("stats = %+v, want 9 nodes / 6 edges", st)
	}
	if st.Admission.Admitted == 0 {
		t.Fatalf("admission stats empty: %+v", st.Admission)
	}
}

func TestApplyPartialProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stream := "node A\napply\nedge not numbers\napply\n"
	resp, err := http.Post(ts.URL+RouteApply, "text/plain", strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if er.Batches != 1 || er.Ops != 1 {
		t.Fatalf("partial progress = %+v, want 1 batch / 1 op applied", er)
	}
}

// TestDeadline504 drives a request whose deadline fires before the
// evaluation runs: the response must be 504 and still carry the
// governance telemetry (the effective α the request was admitted with).
func TestDeadline504(t *testing.T) {
	cfg := Config{}
	cfg.beforeEval = func(route, tenant string) { time.Sleep(30 * time.Millisecond) }
	_, ts := newTestServer(t, cfg)
	var er ErrorResponse
	code := postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.9, TimeoutMs: 5}, &er)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %+v", code, er)
	}
	if er.Governance == nil || er.Governance.EffectiveAlpha != 0.9 {
		t.Fatalf("504 must carry partial telemetry: %+v", er)
	}
}

// gate holds in-flight requests open until released, so tests can pin
// the admission controller in a known state.
type gate struct {
	entered chan string
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan string, 16), release: make(chan struct{})}
}

func (g *gate) hook(route, tenant string) {
	g.entered <- route
	<-g.release
}

// TestAdmissionOverflowAndSaturationClamp saturates a 1-slot, 1-queue
// server: the queued request must run with a halved α and report it,
// and the overflow request must get 429 + Retry-After immediately.
func TestAdmissionOverflowAndSaturationClamp(t *testing.T) {
	g := newGate()
	cfg := Config{MaxInFlight: 1, MaxQueue: 1, MaxQueueWait: 5 * time.Second}
	cfg.beforeEval = g.hook
	srv, ts := newTestServer(t, cfg)

	// Request A takes the only slot and blocks inside the gate.
	var wg sync.WaitGroup
	wg.Add(1)
	var aRes QueryResponse
	var aCode int
	go func() {
		defer wg.Done()
		aCode = postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.8}, &aRes)
	}()
	<-g.entered

	// Request B queues for the slot.
	wg.Add(1)
	var bRes QueryResponse
	var bCode int
	go func() {
		defer wg.Done()
		bCode = postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.8}, &bRes)
	}()
	waitFor(t, func() bool { return srv.AdmissionStats().Waiting == 1 })

	// Request C finds slot and queue full: immediate 429 + Retry-After.
	body, _ := json.Marshal(QueryRequest{Pattern: patText, Alpha: 0.8})
	resp, err := http.Post(ts.URL+RouteQuery, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, body %+v", resp.StatusCode, er)
	}
	if resp.Header.Get("Retry-After") == "" || er.RetryAfterMs <= 0 {
		t.Fatalf("429 must carry Retry-After: header %q, body %+v", resp.Header.Get("Retry-After"), er)
	}

	// Release A; B gets the slot, passes the gate, and must report the
	// saturation clamp: it queued, so its α was halved.
	g.release <- struct{}{} // A passes the gate
	<-g.entered             // B reaches the gate
	g.release <- struct{}{} // B passes
	wg.Wait()
	if aCode != http.StatusOK || aRes.Governance.Clamped {
		t.Fatalf("A: code %d, governance %+v", aCode, aRes.Governance)
	}
	if bCode != http.StatusOK {
		t.Fatalf("B: code %d", bCode)
	}
	bg := bRes.Governance
	if !bg.Queued || !bg.Clamped || bg.ClampReason != "saturation" || bg.EffectiveAlpha != 0.4 {
		t.Fatalf("B governance = %+v, want queued, clamped to 0.4 by saturation", bg)
	}

	st := srv.AdmissionStats()
	if st.Admitted != 2 || st.Queued != 1 || st.Rejected != 1 {
		t.Fatalf("admission stats = %+v", st)
	}
}

// TestQueueWaitBounded: a queued request whose slot never frees is
// answered 429 after MaxQueueWait — nothing waits unboundedly.
func TestQueueWaitBounded(t *testing.T) {
	g := newGate()
	cfg := Config{MaxInFlight: 1, MaxQueue: 1, MaxQueueWait: 30 * time.Millisecond}
	cfg.beforeEval = g.hook
	srv, ts := newTestServer(t, cfg)

	done := make(chan struct{})
	go func() {
		defer close(done)
		var res QueryResponse
		postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.8}, &res)
	}()
	<-g.entered

	var er ErrorResponse
	start := time.Now()
	code := postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.8}, &er)
	waited := time.Since(start)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, body %+v", code, er)
	}
	if waited > 2*time.Second {
		t.Fatalf("queued request waited %v — the wait bound did not hold", waited)
	}
	if srv.AdmissionStats().WaitTimeouts != 1 {
		t.Fatalf("admission stats = %+v", srv.AdmissionStats())
	}
	g.release <- struct{}{}
	<-done
}

// TestTenantBudgetClamp overdraws one tenant's bucket and checks its
// next query runs with a degraded α — reported in the response and
// counted in /metrics — while another tenant is untouched.
func TestTenantBudgetClamp(t *testing.T) {
	srv, ts := newTestServer(t, Config{TenantRate: 1, TenantBurst: 4})
	// Freeze the clock so refill cannot race the assertions.
	now := time.Now()
	srv.ten.now = func() time.Time { return now }

	// First query: bucket starts full (4 tokens), visits charged exceed
	// it, so the bucket lands overdrawn (floored at -burst).
	var first QueryResponse
	if code := postJSON(t, ts.URL+RouteQuery, "hog", QueryRequest{Pattern: patText, Alpha: 0.9}, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Governance.Clamped {
		t.Fatalf("first query should run at full α: %+v", first.Governance)
	}
	if first.Governance.BudgetRemaining == nil || *first.Governance.BudgetRemaining != -4 {
		t.Fatalf("first charge should overdraw to -burst: %+v", first.Governance)
	}

	// Second query: bucket at -burst → factor 1/2 → α clamped to 0.45.
	var second QueryResponse
	if code := postJSON(t, ts.URL+RouteQuery, "hog", QueryRequest{Pattern: patText, Alpha: 0.9}, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	sg := second.Governance
	if !sg.Clamped || sg.ClampReason != "tenant_budget" || sg.EffectiveAlpha != 0.45 {
		t.Fatalf("second query governance = %+v, want α clamped to 0.45 by tenant_budget", sg)
	}
	if !second.Complete {
		// The motif fragment is small; even the halved budget covers it.
		t.Fatalf("degraded query should still complete here: %+v", second)
	}

	// An innocent tenant still runs at full α.
	var other QueryResponse
	if code := postJSON(t, ts.URL+RouteQuery, "quiet", QueryRequest{Pattern: patText, Alpha: 0.9}, &other); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if other.Governance.Clamped {
		t.Fatalf("quiet tenant clamped: %+v", other.Governance)
	}

	// The clamp is visible on /metrics, alongside the per-tenant series.
	resp, err := http.Get(ts.URL + RouteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`rbqd_alpha_clamped_total{reason="tenant_budget"} 1`,
		`rbqd_tenant_tokens{tenant="hog"}`,
		`rbqd_requests_total{route="/v1/query",tenant="hog",code="200"} 2`,
		`rbqd_inflight_capacity`,
		`rbqd_plan_cache_total{outcome="hit"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDrainingServer: after BeginShutdown the serving routes answer 503
// and /healthz flips, while stats and metrics keep answering.
func TestDrainingServer(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.BeginShutdown()

	var er ErrorResponse
	if code := postJSON(t, ts.URL+RouteQuery, "", QueryRequest{Pattern: patText, Alpha: 0.5}, &er); code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d", code)
	}
	resp, err := http.Get(ts.URL + RouteHealth)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d", resp.StatusCode)
	}
	for _, route := range []string{RouteStats, RouteMetrics} {
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during drain: status %d", route, resp.StatusCode)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// --- unit tests for the governance pieces ---

func TestClampAlpha(t *testing.T) {
	cases := []struct {
		requested, factor float64
		queued            bool
		floor             float64
		wantEff           float64
		wantClamped       bool
		wantReason        string
	}{
		{0.5, 1, false, 1e-5, 0.5, false, ""},
		{0.5, 0.5, false, 1e-5, 0.25, true, "tenant_budget"},
		{0.5, 1, true, 1e-5, 0.25, true, "saturation"},
		{0.5, 0.5, true, 1e-5, 0.125, true, "tenant_budget+saturation"},
		{0.5, 0.0001, false, 0.01, 0.01, true, "tenant_budget"}, // floored
		{0, 0.5, true, 1e-5, 0, false, ""},                      // exact mode passes through
		{0.005, 0.1, false, 0.01, 0.005, true, "tenant_budget"}, // floor never raises above requested
	}
	for _, tc := range cases {
		eff, clamped, reason := clampAlpha(tc.requested, tc.factor, tc.queued, tc.floor)
		if eff != tc.wantEff || clamped != tc.wantClamped || reason != tc.wantReason {
			t.Errorf("clampAlpha(%v, %v, %v, %v) = (%v, %v, %q), want (%v, %v, %q)",
				tc.requested, tc.factor, tc.queued, tc.floor, eff, clamped, reason,
				tc.wantEff, tc.wantClamped, tc.wantReason)
		}
	}
}

func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(1, 1, 50*time.Millisecond)
	queued, err := a.acquire(context.Background())
	if err != nil || queued {
		t.Fatalf("first acquire: queued=%v err=%v", queued, err)
	}

	// Second acquire parks in the queue.
	got := make(chan error, 1)
	go func() {
		q, err := a.acquire(context.Background())
		if err == nil && !q {
			err = errors.New("second acquire should report queued")
		}
		got <- err
	}()
	waitFor(t, func() bool { return a.stats().Waiting == 1 })

	// Third finds both full.
	if _, err := a.acquire(context.Background()); !errors.Is(err, ErrOverflow) {
		t.Fatalf("third acquire: %v, want ErrOverflow", err)
	}

	a.release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.release()

	// A queued request's own deadline fires first → ctx error.
	_, _ = a.acquire(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := a.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadlined acquire: %v", err)
	}

	// With no deadline, MaxQueueWait bounds the wait.
	if _, err := a.acquire(context.Background()); !errors.Is(err, ErrQueueWait) {
		t.Fatalf("waited-out acquire: %v", err)
	}
	a.release()

	st := a.stats()
	if st.Admitted != 3 || st.Rejected != 1 || st.Deadlined != 1 || st.WaitTimeouts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
}

func TestTenantBucketUnit(t *testing.T) {
	tb := newTenantBuckets(10, 20)
	now := time.Unix(1000, 0)
	tb.now = func() time.Time { return now }

	if f := tb.factor("a"); f != 1 {
		t.Fatalf("fresh factor = %v", f)
	}
	// Charge past the full bucket: balance floors at -burst.
	if bal := tb.charge("a", 100, true); bal != -20 {
		t.Fatalf("balance = %v, want -20", bal)
	}
	if f := tb.factor("a"); f != 0.5 {
		t.Fatalf("overdrawn factor = %v, want 0.5", f)
	}
	// One second refills rate tokens: -20 + 10 = -10 → factor 1/(1+0.5).
	now = now.Add(time.Second)
	if f := tb.factor("a"); f != 1/1.5 {
		t.Fatalf("refilled factor = %v, want %v", f, 1/1.5)
	}
	// Long idle caps at burst and restores full α.
	now = now.Add(time.Hour)
	if f := tb.factor("a"); f != 1 {
		t.Fatalf("recovered factor = %v", f)
	}
	st := tb.stats()
	if len(st) != 1 || st[0].Tokens != 20 || st[0].VisitsCharged != 100 || st[0].Clamps != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Zero-visit (exact mode) charges the flat minimum, not nothing.
	tb.charge("b", 0, false)
	for _, s := range tb.stats() {
		if s.Tenant == "b" && s.VisitsCharged != exactModeCharge {
			t.Fatalf("exact-mode charge = %+v", s)
		}
	}

	// Disabled buckets never clamp.
	off := newTenantBuckets(0, 0)
	if off.enabled() || off.factor("x") != 1 {
		t.Fatal("disabled buckets must be a no-op")
	}
}

func TestMetricsTenantCardinalityBounded(t *testing.T) {
	m := newMetrics()
	for i := 0; i < 3*maxMetricTenants; i++ {
		m.observe(RouteQuery, fmt.Sprintf("tenant-%03d", i), 200, 0.001)
	}
	var buf bytes.Buffer
	m.render(&buf, opSnapshot{})
	text := buf.String()
	if !strings.Contains(text, `tenant="other"`) {
		t.Fatal("overflow tenants should fold into \"other\"")
	}
	if n := strings.Count(text, "rbqd_request_seconds_count"); n > maxMetricTenants+1 {
		t.Fatalf("%d tenant histogram series, want ≤ %d", n, maxMetricTenants+1)
	}
}

// TestConfigMaxQueueDefaults: MaxQueue 0 takes the default, MaxInFlight;
// a negative value disables the queue; a positive one is kept.
func TestConfigMaxQueueDefaults(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 5}, {-1, 0}, {3, 3}} {
		if got := (Config{MaxInFlight: 5, MaxQueue: tc.in}).withDefaults().MaxQueue; got != tc.want {
			t.Errorf("MaxQueue %d: got %d, want %d", tc.in, got, tc.want)
		}
	}
}
