package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json repeats the
// declarations for the driver; the smoke test keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool    // better direction
	bound      float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd are the metrics a user of rbqd sees. Every workload reports
// every one (the driver's contract), which is why the write latencies,
// which only mixed_rw has, are with the per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"query_p50_us", "us", false, 0.25},
	{"query_p99_us", "us", false, 0.25},
	{"queries_per_s", "1/s", true, 0.25},
	{"server_cpu_us_per_op", "us", false, 0.25},
	{"rss_peak_mb", "MB", false, 0.25},
	{"accuracy_f1", "ratio", true, 0.02},
}

// perLayer are the single-layer metrics of the traced run, plus the
// counts the live run reads from /v1/stats. They have no bound.
var perLayer = []metricDef{
	{"server.handler_us", "us", false, 0},
	{"server.handler_p50_us", "us", false, 0},
	{"server.decode_us", "us", false, 0},
	{"server.parse_us", "us", false, 0},
	{"server.engine_us", "us", false, 0},
	{"server.encode_us", "us", false, 0},
	{"server.self_us", "us", false, 0},
	{"server.transport_us", "us", false, 0},
	{"server.allocs_per_request", "count", false, 0},
	{"server.log_bytes_per_op", "B", false, 0},
	{"server.queued_frac", "ratio", false, 0},
	{"server.rejected_frac", "ratio", false, 0},
	{"server.clamped_frac", "ratio", false, 0},
	{"pattern.parse_us", "us", false, 0},
	{"pattern.key_us", "us", false, 0},
	{"rbq.query_us", "us", false, 0},
	{"rbq.self_us", "us", false, 0},
	{"rbq.allocs_per_query", "count", false, 0},
	{"rbq.plan_cache_hit_ratio", "ratio", true, 0},
	{"rbq.plan_invalidations_per_apply", "count", false, 0},
	{"rbq.trace_overhead_ratio", "ratio", false, 0},
	{"rbq.batch_us_per_item", "us", false, 0},
	{"plan.compile_us", "us", false, 0},
	{"plan.probe_us", "us", false, 0},
	{"reduce.us", "us", false, 0},
	{"reduce.ns_per_visit", "ns", false, 0},
	{"reduce.visited_per_query", "count", false, 0},
	{"reduce.rounds_per_query", "count", false, 0},
	{"reduce.visited_per_budget", "ratio", false, 0},
	{"rbsim.extract_us", "us", false, 0},
	{"rbsim.match_us", "us", false, 0},
	{"rbsub.extract_us", "us", false, 0},
	{"rbsub.match_us", "us", false, 0},
	{"rbsim.fragment_per_budget", "ratio", true, 0},
	{"rbsub.fragment_per_budget", "ratio", true, 0},
	{"rbsub.incomplete_frac", "ratio", false, 0},
	{"simulation.exact_us", "us", false, 0},
	{"subiso.exact_us", "us", false, 0},
	{"rbany.unanchored_us", "us", false, 0},
	{"rbany.evaluated_per_candidate", "ratio", true, 0},
	{"exec.batch_speedup", "ratio", true, 0},
	{"delta.apply_us", "us", false, 0},
	{"delta.overlay_query_ratio", "ratio", false, 0},
	{"graph.buildaux_ms", "ms", false, 0},
	{"graph.load_ms", "ms", false, 0},
	{"graph.compact_ms", "ms", false, 0},
	{"graph.compact_splice_frac", "ratio", true, 0},
	{"graph.compactions", "count", false, 0},
	{"store.append_us", "us", false, 0},
	{"store.append_nosync_us", "us", false, 0},
	{"store.fsyncs_per_apply", "count", false, 0},
	{"store.write_bytes_per_op", "B", false, 0},
	{"store.image_write_ms", "ms", false, 0},
	{"store.image_bytes_per_item", "B", false, 0},
	{"store.recover_ms", "ms", false, 0},
	{"landmark.build_ms", "ms", false, 0},
	{"rbreach.query_us", "us", false, 0},
	{"apply_p50_us", "us", false, 0},
	{"apply_p99_us", "us", false, 0},
	{"loadgen.writer_late_ms_p99", "ms", false, 0},
	{"loadgen.cpu_frac", "ratio", false, 0},
}

// since is the time elapsed from t in µs.
func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by nearest rank; 0 of nothing.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[int(math.Round(q*float64(len(xs)-1)))]
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// iqr is the distance between the first and third quartile, the spread
// the run prints beside each per-segment series.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
