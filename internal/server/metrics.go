package server

// The /metrics endpoint: a small hand-rolled Prometheus text-format
// registry (the repo takes no dependencies). Push-side series — request
// counts and latency histograms per route and tenant, α-clamp events —
// accumulate here; pull-side series — admission, tenant budgets,
// plan-cache counters, MutationStats — are snapshotted from their
// owners at scrape time, so the registry never duplicates state that
// already has a consistent source.
//
// Tenant label cardinality is bounded: after maxMetricTenants distinct
// tenants, further ones are folded into the "other" label. Budgets and
// stats keep exact per-tenant state (tenant.go); only the metric labels
// saturate.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"rbq"
)

// maxMetricTenants bounds the tenant label alphabet of the per-tenant
// series; tenants beyond it are folded into "other".
const maxMetricTenants = 32

// latencyBuckets are the histogram upper bounds in seconds. The serving
// hot path sits in the 1µs–1ms decade, so the low end is dense; the
// high end covers degraded exact-mode queries and apply streams.
var latencyBuckets = []float64{
	0.000_05, 0.000_1, 0.000_25, 0.000_5,
	0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is one cumulative latency distribution; counts has one
// slot per bucket plus the trailing +Inf slot.
type histogram struct {
	counts []uint64
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// reqKey labels one requests_total / request_seconds series.
type reqKey struct {
	route  string
	tenant string
	code   int
}

// metrics is the push-side registry.
type metrics struct {
	mu       sync.Mutex
	requests map[reqKey]uint64
	hists    map[[2]string]*histogram // route, tenant
	clamps   map[string]uint64        // by reason
	slow     map[string]uint64        // slow-query captures, by reason
	tenants  map[string]bool          // label alphabet, bounded
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[reqKey]uint64),
		hists:    make(map[[2]string]*histogram),
		clamps:   make(map[string]uint64),
		slow:     make(map[string]uint64),
		tenants:  make(map[string]bool),
	}
}

// tenantLabel bounds the tenant label alphabet. Callers hold mu.
func (m *metrics) tenantLabel(tenant string) string {
	if m.tenants[tenant] {
		return tenant
	}
	if len(m.tenants) >= maxMetricTenants {
		return "other"
	}
	m.tenants[tenant] = true
	return tenant
}

// observe records one finished request.
func (m *metrics) observe(route, tenant string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tenantLabel(tenant)
	m.requests[reqKey{route, t, code}]++
	hk := [2]string{route, t}
	h := m.hists[hk]
	if h == nil {
		h = newHistogram()
		m.hists[hk] = h
	}
	h.observe(seconds)
}

// clamp records one α-clamp event by reason.
func (m *metrics) clamp(reason string) {
	m.mu.Lock()
	m.clamps[reason]++
	m.mu.Unlock()
}

// slowQuery records one slow-query capture by reason.
func (m *metrics) slowQuery(reason string) {
	m.mu.Lock()
	m.slow[reason]++
	m.mu.Unlock()
}

// opSnapshot carries the pull-side state render attaches at scrape.
type opSnapshot struct {
	admission AdmissionStats
	tenants   []TenantStats
	plans     rbq.PlanCacheStats
	mutation  rbq.MutationStats
	uptime    float64
}

// render writes the whole exposition in Prometheus text format, series
// sorted for stable scrapes.
func (m *metrics) render(w io.Writer, snap opSnapshot) {
	m.mu.Lock()
	reqKeys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Slice(reqKeys, func(i, j int) bool {
		a, b := reqKeys[i], reqKeys[j]
		if a.route != b.route {
			return a.route < b.route
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.code < b.code
	})
	histKeys := make([][2]string, 0, len(m.hists))
	for k := range m.hists {
		histKeys = append(histKeys, k)
	}
	sort.Slice(histKeys, func(i, j int) bool {
		if histKeys[i][0] != histKeys[j][0] {
			return histKeys[i][0] < histKeys[j][0]
		}
		return histKeys[i][1] < histKeys[j][1]
	})
	clampReasons := make([]string, 0, len(m.clamps))
	for r := range m.clamps {
		clampReasons = append(clampReasons, r)
	}
	sort.Strings(clampReasons)
	slowReasons := make([]string, 0, len(m.slow))
	for r := range m.slow {
		slowReasons = append(slowReasons, r)
	}
	sort.Strings(slowReasons)

	fmt.Fprintln(w, "# HELP rbqd_requests_total Requests served, by route, tenant and status code.")
	fmt.Fprintln(w, "# TYPE rbqd_requests_total counter")
	for _, k := range reqKeys {
		fmt.Fprintf(w, "rbqd_requests_total{route=%q,tenant=%q,code=\"%d\"} %d\n",
			k.route, k.tenant, k.code, m.requests[k])
	}
	fmt.Fprintln(w, "# HELP rbqd_request_seconds Request latency, by route and tenant.")
	fmt.Fprintln(w, "# TYPE rbqd_request_seconds histogram")
	for _, k := range histKeys {
		h := m.hists[k]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "rbqd_request_seconds_bucket{route=%q,tenant=%q,le=%q} %d\n",
				k[0], k[1], strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "rbqd_request_seconds_bucket{route=%q,tenant=%q,le=\"+Inf\"} %d\n", k[0], k[1], cum)
		fmt.Fprintf(w, "rbqd_request_seconds_sum{route=%q,tenant=%q} %g\n", k[0], k[1], h.sum)
		fmt.Fprintf(w, "rbqd_request_seconds_count{route=%q,tenant=%q} %d\n", k[0], k[1], h.total)
	}
	fmt.Fprintln(w, "# HELP rbqd_alpha_clamped_total Queries answered with a degraded alpha, by reason.")
	fmt.Fprintln(w, "# TYPE rbqd_alpha_clamped_total counter")
	for _, r := range clampReasons {
		fmt.Fprintf(w, "rbqd_alpha_clamped_total{reason=%q} %d\n", r, m.clamps[r])
	}
	fmt.Fprintln(w, "# HELP rbqd_slow_queries_total Requests captured by the slow-query log, by reason.")
	fmt.Fprintln(w, "# TYPE rbqd_slow_queries_total counter")
	for _, r := range slowReasons {
		fmt.Fprintf(w, "rbqd_slow_queries_total{reason=%q} %d\n", r, m.slow[r])
	}
	m.mu.Unlock()

	a := snap.admission
	fmt.Fprintln(w, "# HELP rbqd_inflight_requests Requests currently holding an execution slot.")
	fmt.Fprintln(w, "# TYPE rbqd_inflight_requests gauge")
	fmt.Fprintf(w, "rbqd_inflight_requests %d\n", a.InFlight)
	fmt.Fprintln(w, "# HELP rbqd_inflight_capacity The in-flight admission limit.")
	fmt.Fprintln(w, "# TYPE rbqd_inflight_capacity gauge")
	fmt.Fprintf(w, "rbqd_inflight_capacity %d\n", a.Capacity)
	fmt.Fprintln(w, "# HELP rbqd_queue_waiting Requests currently waiting for an execution slot.")
	fmt.Fprintln(w, "# TYPE rbqd_queue_waiting gauge")
	fmt.Fprintf(w, "rbqd_queue_waiting %d\n", a.Waiting)
	fmt.Fprintln(w, "# HELP rbqd_admission_total Admission outcomes.")
	fmt.Fprintln(w, "# TYPE rbqd_admission_total counter")
	fmt.Fprintf(w, "rbqd_admission_total{outcome=\"admitted\"} %d\n", a.Admitted)
	fmt.Fprintf(w, "rbqd_admission_total{outcome=\"queued\"} %d\n", a.Queued)
	fmt.Fprintf(w, "rbqd_admission_total{outcome=\"rejected\"} %d\n", a.Rejected)
	fmt.Fprintf(w, "rbqd_admission_total{outcome=\"wait_timeout\"} %d\n", a.WaitTimeouts)
	fmt.Fprintf(w, "rbqd_admission_total{outcome=\"deadlined\"} %d\n", a.Deadlined)

	if len(snap.tenants) > 0 {
		fmt.Fprintln(w, "# HELP rbqd_tenant_visits_total Visits charged to each tenant's budget bucket.")
		fmt.Fprintln(w, "# TYPE rbqd_tenant_visits_total counter")
		for _, t := range snap.tenants {
			fmt.Fprintf(w, "rbqd_tenant_visits_total{tenant=%q} %d\n", t.Tenant, t.VisitsCharged)
		}
		fmt.Fprintln(w, "# HELP rbqd_tenant_tokens Current tenant bucket balance (negative = overdrawn).")
		fmt.Fprintln(w, "# TYPE rbqd_tenant_tokens gauge")
		for _, t := range snap.tenants {
			fmt.Fprintf(w, "rbqd_tenant_tokens{tenant=%q} %g\n", t.Tenant, t.Tokens)
		}
	}

	p := snap.plans
	fmt.Fprintln(w, "# HELP rbqd_plan_cache_total Plan cache outcomes.")
	fmt.Fprintln(w, "# TYPE rbqd_plan_cache_total counter")
	fmt.Fprintf(w, "rbqd_plan_cache_total{outcome=\"hit\"} %d\n", p.Hits)
	fmt.Fprintf(w, "rbqd_plan_cache_total{outcome=\"miss\"} %d\n", p.Misses)
	fmt.Fprintf(w, "rbqd_plan_cache_total{outcome=\"invalidation\"} %d\n", p.Invalidations)
	fmt.Fprintln(w, "# HELP rbqd_plan_cache_size Plans currently cached.")
	fmt.Fprintln(w, "# TYPE rbqd_plan_cache_size gauge")
	fmt.Fprintf(w, "rbqd_plan_cache_size %d\n", p.Size)

	mu := snap.mutation
	fmt.Fprintln(w, "# HELP rbqd_snapshot_epoch Current snapshot publish epoch.")
	fmt.Fprintln(w, "# TYPE rbqd_snapshot_epoch gauge")
	fmt.Fprintf(w, "rbqd_snapshot_epoch %d\n", mu.Epoch)
	fmt.Fprintln(w, "# HELP rbqd_live_delta_ops Net op count of the live delta.")
	fmt.Fprintln(w, "# TYPE rbqd_live_delta_ops gauge")
	fmt.Fprintf(w, "rbqd_live_delta_ops %d\n", mu.LiveDeltaOps)
	fmt.Fprintln(w, "# HELP rbqd_compactions_total Base compactions since start.")
	fmt.Fprintln(w, "# TYPE rbqd_compactions_total counter")
	fmt.Fprintf(w, "rbqd_compactions_total %d\n", mu.Compactions)
	fmt.Fprintln(w, "# HELP rbqd_last_compact_seconds Wall time of the most recent compaction's in-memory rebuild.")
	fmt.Fprintln(w, "# TYPE rbqd_last_compact_seconds gauge")
	fmt.Fprintf(w, "rbqd_last_compact_seconds %g\n", float64(mu.LastCompactNs)/1e9)
	fmt.Fprintln(w, "# HELP rbqd_last_compact_touched_nodes Size of the touched set the most recent compaction spliced.")
	fmt.Fprintln(w, "# TYPE rbqd_last_compact_touched_nodes gauge")
	fmt.Fprintf(w, "rbqd_last_compact_touched_nodes %d\n", mu.LastCompactTouchedNodes)
	if mu.Mode != "" {
		fmt.Fprintln(w, "# HELP rbqd_compact_mode Strategy of the most recent compaction, always incremental: the splice is the only one (constant 1, mode in the label).")
		fmt.Fprintln(w, "# TYPE rbqd_compact_mode gauge")
		fmt.Fprintf(w, "rbqd_compact_mode{mode=%q} 1\n", string(mu.Mode))
	}
	if mu.Persistent {
		fmt.Fprintln(w, "# HELP rbqd_wal_seq Last batch sequence acked durable to the WAL.")
		fmt.Fprintln(w, "# TYPE rbqd_wal_seq gauge")
		fmt.Fprintf(w, "rbqd_wal_seq %d\n", mu.Seq)
		fmt.Fprintln(w, "# HELP rbqd_base_write_errors_total Failed base-image writes (store poisoned until reopen).")
		fmt.Fprintln(w, "# TYPE rbqd_base_write_errors_total counter")
		fmt.Fprintf(w, "rbqd_base_write_errors_total %d\n", mu.BaseWriteErrors)
	}

	// Go runtime health: enough to spot a leak, a heap ramp or GC
	// pressure from the scrape alone, with no pprof round trip.
	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	fmt.Fprintln(w, "# HELP rbqd_go_goroutines Live goroutines.")
	fmt.Fprintln(w, "# TYPE rbqd_go_goroutines gauge")
	fmt.Fprintf(w, "rbqd_go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintln(w, "# HELP rbqd_go_heap_alloc_bytes Heap bytes allocated and in use.")
	fmt.Fprintln(w, "# TYPE rbqd_go_heap_alloc_bytes gauge")
	fmt.Fprintf(w, "rbqd_go_heap_alloc_bytes %d\n", rt.HeapAlloc)
	fmt.Fprintln(w, "# HELP rbqd_go_heap_sys_bytes Heap bytes obtained from the OS.")
	fmt.Fprintln(w, "# TYPE rbqd_go_heap_sys_bytes gauge")
	fmt.Fprintf(w, "rbqd_go_heap_sys_bytes %d\n", rt.HeapSys)
	fmt.Fprintln(w, "# HELP rbqd_go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.")
	fmt.Fprintln(w, "# TYPE rbqd_go_gc_pause_seconds_total counter")
	fmt.Fprintf(w, "rbqd_go_gc_pause_seconds_total %g\n", float64(rt.PauseTotalNs)/1e9)
	fmt.Fprintln(w, "# HELP rbqd_go_gc_cycles_total Completed GC cycles.")
	fmt.Fprintln(w, "# TYPE rbqd_go_gc_cycles_total counter")
	fmt.Fprintf(w, "rbqd_go_gc_cycles_total %d\n", rt.NumGC)
	fmt.Fprintln(w, "# HELP rbqd_uptime_seconds Seconds since the server started.")
	fmt.Fprintln(w, "# TYPE rbqd_uptime_seconds gauge")
	fmt.Fprintf(w, "rbqd_uptime_seconds %g\n", snap.uptime)
	fmt.Fprintln(w, "# HELP rbqd_build_info Build metadata (constant 1, values in the labels).")
	fmt.Fprintln(w, "# TYPE rbqd_build_info gauge")
	fmt.Fprintf(w, "rbqd_build_info{go_version=%q} 1\n", runtime.Version())
}
