package main

// The -json micro-benchmark mode: a fixed suite over the individual hot
// engines (RBSim, RBSub, RBReach, DualSimulation, BuildAux), emitted as
// machine-readable JSON so successive PRs can track the performance
// trajectory of the query path. The fixtures mirror the root package's
// micro-benchmarks (bench_test.go) so numbers are comparable with
// `go test -bench`.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"rbq"
	"rbq/internal/bounded"
	"rbq/internal/dataset"
	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/landmark"
	"rbq/internal/pattern"
	"rbq/internal/plan"
	"rbq/internal/rbreach"
	"rbq/internal/reduce"
	"rbq/internal/simulation"
	"rbq/internal/store"
)

// microResult is one benchmark measurement in the JSON report.
type microResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// NsSpread is the relative ns/op spread across this suite run's
	// repetitions, (max-min)/min. A baseline entry's spread tells the
	// -compare gate how noisy the benchmark is on the recording host, so
	// the tolerance can tighten below the CLI default for stable entries.
	NsSpread float64 `json:"ns_spread"`
	// PairHighWater reports the reduction's live-pair high-water mark for
	// the engine entries that run a dynamic reduction (PreparedRBSimQuery,
	// PreparedRBSubQuery) —
	// the empirical input for tuning the pair table's budget-derived size
	// hint. Zero for entries without a reduction.
	PairHighWater int `json:"pair_high_water,omitempty"`
	// PlanCacheHits/PlanCacheMisses report the DB plan-cache counters
	// after the QueryCacheHit entry's runs: the facade path being
	// measured must be all hits after its single warm-up miss, and the
	// recorded counters make that auditable in the report.
	PlanCacheHits   uint64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses uint64 `json:"plan_cache_misses,omitempty"`
}

// parallelBench marks suite entries whose allocation counts depend on
// GOMAXPROCS (one chunk of buffers per worker), so their alloc gate gets
// headroom for differing core counts instead of the exact-count gate the
// serial hot paths use. CompactSwap rebuilds the Aux, whose construction
// parallelizes the same way; the W4 worker-pool entries spawn goroutines
// and per-worker pooled scratch.
var parallelBench = map[string]bool{
	"BuildAux":            true,
	"LoadBinary":          true,
	"CompactSwap":         true,
	"ParallelExactW4":     true,
	"QueryBatchShardedW4": true,
}

// loadBaseline reads and parses a baseline report. Callers load it
// before the fresh report is written, so -out and -compare may name the
// same file without the comparison degenerating into self-comparison.
func loadBaseline(path string) (map[string]microResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read baseline: %w", err)
	}
	var baseline []microResult
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	base := make(map[string]microResult, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}
	return base, nil
}

// Adaptive-tolerance parameters for compareBaseline: a benchmark whose
// recorded repetition spreads are small gets a tolerance of
// spreadSlack × the larger spread instead of the (looser) CLI default,
// floored at minAdaptiveTolerance so scheduler jitter on a quiet
// benchmark cannot turn the gate hair-triggered.
const (
	minAdaptiveTolerance = 0.10
	spreadSlack          = 3.0
)

// effectiveTolerance tightens the CLI tolerance per benchmark using the
// ns/op spreads recorded in the baseline and fresh reports. Entries
// without spread data (older baselines) keep the CLI tolerance.
func effectiveTolerance(tolerance float64, b, r microResult) float64 {
	if b.NsSpread <= 0 || r.NsSpread <= 0 {
		return tolerance
	}
	adaptive := spreadSlack * max(b.NsSpread, r.NsSpread)
	adaptive = max(adaptive, minAdaptiveTolerance)
	return min(tolerance, adaptive)
}

// compareBaseline checks fresh results against a baseline report and
// returns an error naming every benchmark that regressed by more than
// the allowed tolerance in allocs/op or — when nsGate is set — in ns/op.
// The CLI tolerance (e.g. 0.25 = 25%) is a ceiling: benchmarks whose
// best-of-N runs were stable on both the baseline host and this one are
// gated at spreadSlack× their observed spread instead (floored at
// minAdaptiveTolerance), so a quiet benchmark cannot quietly absorb a
// 24% regression. The allocation gate is the machine-independent one
// (timings shift with the host; allocation counts only shift with code,
// so serial benchmarks get no slack and GOMAXPROCS-dependent ones get
// proportional headroom). Benchmarks absent from the baseline are
// skipped (new entries need a refreshed baseline, not a red build).
func compareBaseline(results []microResult, base map[string]microResult, baselinePath string, tolerance float64, nsGate bool, stderr io.Writer) error {
	var regressed []string
	for _, r := range results {
		b, ok := base[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Fprintf(stderr, "compare %-20s no baseline entry, skipped\n", r.Name)
			continue
		}
		if serveBench[r.Name] {
			// Closed-loop latency percentiles move with the host's core
			// count and co-tenants: report the trend, never gate on it.
			fmt.Fprintf(stderr, "compare %-20s %8.0f -> %8.0f ns/op (%+.1f%%, report-only)\n",
				r.Name, b.NsPerOp, r.NsPerOp, 100*(r.NsPerOp/b.NsPerOp-1))
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		effTol := effectiveTolerance(tolerance, b, r)
		fmt.Fprintf(stderr, "compare %-20s %8.0f -> %8.0f ns/op (%+.1f%%, tol %.0f%%), %d -> %d allocs/op\n",
			r.Name, b.NsPerOp, r.NsPerOp, 100*(ratio-1), 100*effTol, b.AllocsPerOp, r.AllocsPerOp)
		if nsGate && ratio > 1+effTol {
			regressed = append(regressed,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
					r.Name, b.NsPerOp, r.NsPerOp, 100*(ratio-1), 100*effTol))
		}
		allocLimit := float64(b.AllocsPerOp)
		if parallelBench[r.Name] {
			allocLimit *= 2 // one buffer chunk per worker; runners differ in cores
		}
		if float64(r.AllocsPerOp) > allocLimit {
			regressed = append(regressed,
				fmt.Sprintf("%s: %d -> %d allocs/op (limit %.0f)",
					r.Name, b.AllocsPerOp, r.AllocsPerOp, allocLimit))
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("hot-path regressions vs %s:\n  %s", baselinePath, strings.Join(regressed, "\n  "))
	}
	return nil
}

// runMicro executes the micro-benchmark suite count times keeping each
// benchmark's best run (the minimum is the stable statistic under
// background-load noise), writes the JSON report to path ("-" means
// stdout), and, when comparePath is non-empty, fails on >tolerance
// regressions against that baseline report (loaded up front, so -out may
// overwrite it safely). nsGate false restricts the gate to allocs/op —
// the machine-independent signal — for runs on hardware unrelated to the
// baseline's.
func runMicro(path, comparePath string, tolerance float64, count int, nsGate bool, stderr io.Writer) error {
	var base map[string]microResult
	if comparePath != "" {
		var err error
		if base, err = loadBaseline(comparePath); err != nil {
			return err
		}
	}
	g := dataset.YoutubeLike(30_000, 1)
	aux := graph.BuildAux(g)
	rng := rand.New(rand.NewSource(2))
	var q *pattern.Pattern
	var vp graph.NodeID
	for i := 0; i < 1000 && q == nil; i++ {
		cand := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(cand) < 2 {
			continue
		}
		q = gen.PatternAt(g, cand, gen.PatternConfig{Nodes: 4, Edges: 8, Seed: 3})
		vp = cand
	}
	if q == nil {
		return fmt.Errorf("could not extract a benchmark pattern")
	}
	opts := reduce.Options{Alpha: 0.001}
	pl, err := plan.New(aux, q)
	if err != nil {
		return fmt.Errorf("compile benchmark pattern: %w", err)
	}

	// Materialize the d_Q-ball of v_p as a standalone Graph so the
	// DualSimulation entry keeps measuring the same whole-(sub)graph
	// fixpoint as earlier baselines; the pooled exact path (which reads
	// only the ball's label-closed region) is measured separately by the
	// MatchOptBall entry.
	var ballCSR graph.FragCSR
	g.BallInto(vp, q.Diameter(), &ballCSR, nil)
	ballG := ballCSR.ToGraph(g)
	bvp := graph.NodeID(ballCSR.PosOf(vp))

	gr := dataset.YahooLike(20_000, 1)
	oracle := rbreach.New(gr, landmark.BuildOptions{Alpha: 0.005})
	reachQs := gen.ReachQueries(gr, 64, 9)

	// The facade request path on a warm plan cache: the same fixture
	// query as PreparedRBSimQuery, issued through DB.Query so the
	// measurement covers request validation, the cache probe and the
	// result assembly. One warm-up run takes the compile miss up front.
	qdb := rbq.NewDB(g)
	qreq := rbq.Request{Anchor: rbq.Pin(vp), Alpha: 0.001}
	if _, err := qdb.Query(context.Background(), q, qreq); err != nil {
		return fmt.Errorf("warm facade query: %w", err)
	}
	// QueryCacheHit's request with tracing opted in: TraceOverhead
	// records what the span tree costs on the same cache-hit path, so
	// the trace-off path's alloc gate has an explicit counterpart.
	treq := qreq
	treq.WantTrace = true
	// The modes_cold workload's unanchored shape: the same template with
	// no pin, at that workload's α, so rbany ranks every candidate of the
	// rarest label and runs one reduction per anchor, serially.
	ureq := rbq.Request{Mode: rbq.Unanchored, Alpha: 1e-3}

	// Parallel fixtures, exercising the two worker-pool fan-out points
	// with a workers axis (W1 = pool of one, the inline degenerate case;
	// W4 = four workers — speedup on a multicore host, pure pool overhead
	// on a single-core one). ParallelExact fans MatchOpt regions over every
	// node sharing v_p's label (capped at 48 pins), and QueryBatchSharded
	// pushes a 128-item pinned batch through the facade pool. Both take
	// their width directly, so the W4 entries measure 4 goroutines
	// regardless of the host's GOMAXPROCS.
	var exactPins []graph.NodeID
	for _, v := range g.NodesWithLabel(g.LabelIDOf(q.Label(q.Personalized()))) {
		if g.Degree(v) >= 2 {
			exactPins = append(exactPins, v)
		}
		if len(exactPins) == 48 {
			break
		}
	}
	if len(exactPins) == 0 {
		return fmt.Errorf("no pins share the benchmark pattern's personalized label")
	}
	batchItems := make([]rbq.AnchoredQuery, 128)
	for i := range batchItems {
		batchItems[i] = rbq.AnchoredQuery{Q: q, At: exactPins[i%len(exactPins)]}
	}

	// Mutation fixtures: a batch of net-new edges over g (and its exact
	// inverse), drawn deterministically, so ApplyEdges can oscillate the
	// live delta without drifting and OverlayQuery can run the QueryCacheHit
	// fixture against a snapshot with a live overlay. The three DBs are
	// built lazily, on the first run of the first mutation entry: they
	// add ~3 graph-sized structures of live heap, which must not sit in
	// memory while the engine entries are measured (GC and cache
	// pressure from fixture state is not a property of the hot paths).
	// The mutation entries therefore sit LAST in the suite — keep them
	// there — and exclude the one-time setup via b.ResetTimer.
	const mutBatch = 64
	sweepSizes := []int{64, 512, 4096}
	var mutAdd, mutDel []rbq.Op
	var adb, odb, cdb, idb *rbq.DB
	sweepAdd := make(map[int][]rbq.Op, len(sweepSizes))
	sweepDel := make(map[int][]rbq.Op, len(sweepSizes))
	sweepDB := make(map[int]*rbq.DB, len(sweepSizes))
	var mutOnce sync.Once
	var mutErr error
	mutSetup := func(b *testing.B) {
		mutOnce.Do(func() {
			mutSeen := make(map[[2]int]bool)
			mrng := rand.New(rand.NewSource(11))
			for len(mutAdd) < mutBatch {
				u, v := mrng.Intn(g.NumNodes()), mrng.Intn(g.NumNodes())
				if mutSeen[[2]int{u, v}] || g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
					continue
				}
				mutSeen[[2]int{u, v}] = true
				mutAdd = append(mutAdd, rbq.AddEdge(graph.NodeID(u), graph.NodeID(v)))
				mutDel = append(mutDel, rbq.DelEdge(graph.NodeID(u), graph.NodeID(v)))
			}
			// ApplyEdges mutates its own DB so the QueryCacheHit fixture's
			// plan cache and epoch stay untouched.
			adb = rbq.NewDB(g)
			// OverlayQuery pins one live-delta snapshot: the same query and
			// pin as QueryCacheHit, answered through an overlay that touches
			// 128 nodes of 30k — the representative serving state between
			// compactions. One warm-up takes the compile miss.
			odb = rbq.NewDB(g)
			if mutErr = odb.Apply(mutAdd); mutErr != nil {
				return
			}
			if _, err := odb.Query(context.Background(), q, qreq); err != nil {
				mutErr = err
				return
			}
			// CompactSwap alternates one-op deltas with forced compactions,
			// so each iteration measures two full rebuild-and-swap cycles of
			// CSR + Aux at the 30k-node scale. Splicing is pinned off: this
			// entry is the full-rebuild reference IncrementalCompact is
			// judged against.
			cdb = rbq.NewDB(g)
			cdb.SetCompactSpliceFraction(0)
			// IncrementalCompact runs the same cadence over a 64-edge delta
			// at the default splice fraction (~128 touched of 30k nodes, far
			// under the fallback threshold, so every compaction splices).
			idb = rbq.NewDB(g)
			// CompactSweep measures how splice cost scales with delta size:
			// nested prefixes of one deterministic net-new edge pool, with
			// the fraction forced to 1 so even the 4096-edge delta (~8k
			// touched nodes, past the default 25% fallback) stays on the
			// splice path.
			srng := rand.New(rand.NewSource(13))
			sweepSeen := make(map[[2]int]bool)
			maxSweep := sweepSizes[len(sweepSizes)-1]
			var poolAdd, poolDel []rbq.Op
			for len(poolAdd) < maxSweep {
				u, v := srng.Intn(g.NumNodes()), srng.Intn(g.NumNodes())
				if sweepSeen[[2]int{u, v}] || g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
					continue
				}
				sweepSeen[[2]int{u, v}] = true
				poolAdd = append(poolAdd, rbq.AddEdge(graph.NodeID(u), graph.NodeID(v)))
				poolDel = append(poolDel, rbq.DelEdge(graph.NodeID(u), graph.NodeID(v)))
			}
			for _, n := range sweepSizes {
				sweepAdd[n], sweepDel[n] = poolAdd[:n], poolDel[:n]
				db := rbq.NewDB(g)
				db.SetCompactSpliceFraction(1)
				sweepDB[n] = db
			}
		})
		if mutErr != nil {
			b.Fatalf("mutation fixture: %v", mutErr)
		}
		b.ResetTimer()
	}
	// compactCycle: one iteration = add batch, compact, inverse batch,
	// compact — the DB returns to the fixture base, so iterations are
	// identical and each measures two compact-and-swap cycles.
	compactCycle := func(b *testing.B, db *rbq.DB, add, del []rbq.Op) {
		for i := 0; i < b.N; i++ {
			if err := db.Apply(add); err != nil {
				b.Fatal(err)
			}
			if err := db.Compact(); err != nil {
				b.Fatal(err)
			}
			if err := db.Apply(del); err != nil {
				b.Fatal(err)
			}
			if err := db.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	}

	// Persistence fixtures, also built lazily and LAST in the suite: a
	// scratch dir for WALAppend, and a prepared database directory for
	// RecoverReplay (a ~5k-node base image plus a 32-batch WAL tail, the
	// representative restart state between compactions). Both use
	// SyncNone so the entries measure the library's encode/frame/replay
	// work, not the host's fsync latency.
	var persistDirs []string
	defer func() {
		for _, d := range persistDirs {
			os.RemoveAll(d)
		}
	}()
	var recoverDir string
	var persistOnce sync.Once
	var persistErr error
	persistSetup := func(b *testing.B) {
		persistOnce.Do(func() {
			recoverDir, persistErr = os.MkdirTemp("", "rbbench-recover")
			if persistErr != nil {
				return
			}
			persistDirs = append(persistDirs, recoverDir)
			base := dataset.YoutubeLike(5_000, 7)
			pdb, err := rbq.OpenDB(recoverDir, rbq.OpenOptions{Bootstrap: base, Sync: rbq.SyncNone})
			if err != nil {
				persistErr = err
				return
			}
			seen := make(map[[2]int]bool)
			prng := rand.New(rand.NewSource(17))
			for batch := 0; batch < 32; batch++ {
				ops := make([]rbq.Op, 0, mutBatch)
				for len(ops) < mutBatch {
					u, v := prng.Intn(base.NumNodes()), prng.Intn(base.NumNodes())
					if seen[[2]int{u, v}] || base.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
						continue
					}
					seen[[2]int{u, v}] = true
					ops = append(ops, rbq.AddEdge(graph.NodeID(u), graph.NodeID(v)))
				}
				if persistErr = pdb.Apply(ops); persistErr != nil {
					return
				}
			}
			persistErr = pdb.Close()
		})
		if persistErr != nil {
			b.Fatalf("persistence fixture: %v", persistErr)
		}
		b.ResetTimer()
	}

	var loadOnce sync.Once
	var loadFile []byte
	var loadErr error

	suite := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"PreparedRBSimQuery", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl.Bounded(aux, bounded.Simulation, vp, opts, nil)
			}
		}},
		{"PreparedRBSubQuery", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl.Bounded(aux, bounded.Subgraph, vp, opts, nil)
			}
		}},
		{"QueryCacheHit", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qdb.Query(context.Background(), q, qreq)
			}
		}},
		{"TraceOverhead", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qdb.Query(context.Background(), q, treq)
			}
		}},
		{"UnanchoredQuery", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qdb.Query(context.Background(), q, ureq); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"RBReach", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rq := reachQs[i%len(reachQs)]
				oracle.Query(rq.From, rq.To)
			}
		}},
		{"DualSimulation", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simulation.DualSimulation(ballG, q, bvp)
			}
		}},
		{"MatchOptBall", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simulation.MatchOpt(g, q, pl.Labels(), vp, nil)
			}
		}},
		{"ParallelExactW1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simulation.MatchOptMany(g, q, pl.Labels(), exactPins, 1, nil)
			}
		}},
		{"ParallelExactW4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simulation.MatchOptMany(g, q, pl.Labels(), exactPins, 4, nil)
			}
		}},
		{"QueryBatchShardedW1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qdb.QueryBatch(context.Background(), batchItems, rbq.Request{Alpha: 0.001}, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"QueryBatchShardedW4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := qdb.QueryBatch(context.Background(), batchItems, rbq.Request{Alpha: 0.001}, 4); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"BuildAux", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.BuildAux(g)
			}
		}},
		{"LoadBinary", func(b *testing.B) {
			// One iteration = rbqd's time to ready minus the exec: decode
			// the binary graph file, build the CSR and the Aux. The file
			// is the one the end-to-end benchmark's engine_heavy workload
			// starts rbqd on (1M nodes, 2.8M edges, 26 MB), written on the
			// first run and the only part of the fixture kept.
			loadOnce.Do(func() {
				var buf bytes.Buffer
				loadErr = dataset.WriteBinary(&buf, dataset.YoutubeLike(1_000_000, 20140622))
				loadFile = buf.Bytes()
			})
			if loadErr != nil {
				b.Fatal(loadErr)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rbq.Load(bytes.NewReader(loadFile)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ApplyEdges", func(b *testing.B) {
			// One iteration = one batch of 64 edge adds + the inverse
			// batch: validation, two delta seals (overlay + patched Aux)
			// and two snapshot publishes, with the live delta returning
			// to empty so iterations are identical.
			mutSetup(b)
			for i := 0; i < b.N; i++ {
				if err := adb.Apply(mutAdd); err != nil {
					b.Fatal(err)
				}
				if err := adb.Apply(mutDel); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"OverlayQuery", func(b *testing.B) {
			// QueryCacheHit's exact workload, answered against a snapshot
			// carrying a 64-edge live delta: the cost of overlay-aware
			// adjacency and histogram reads on a mostly-untouched graph.
			mutSetup(b)
			for i := 0; i < b.N; i++ {
				odb.Query(context.Background(), q, qreq)
			}
		}},
		{"CompactSwap", func(b *testing.B) {
			// Full-rebuild reference: splicing pinned off, one-op deltas,
			// each iteration rebuilding CSR + Aux twice at 30k nodes.
			mutSetup(b)
			compactCycle(b, cdb, mutAdd[:1], mutDel[:1])
		}},
		{"IncrementalCompact", func(b *testing.B) {
			// CompactSwap's cadence with a 64-edge delta on the splice
			// path: each compaction copies only the ~128 touched nodes'
			// CSR segments and histograms and memmoves the untouched runs.
			mutSetup(b)
			compactCycle(b, idb, mutAdd, mutDel)
		}},
		{"CompactSweep64", func(b *testing.B) {
			mutSetup(b)
			compactCycle(b, sweepDB[64], sweepAdd[64], sweepDel[64])
		}},
		{"CompactSweep512", func(b *testing.B) {
			mutSetup(b)
			compactCycle(b, sweepDB[512], sweepAdd[512], sweepDel[512])
		}},
		{"CompactSweep4096", func(b *testing.B) {
			mutSetup(b)
			compactCycle(b, sweepDB[4096], sweepAdd[4096], sweepDel[4096])
		}},
		{"WALAppend", func(b *testing.B) {
			// One iteration = framing, checksumming and writing one 64-op
			// batch record (SyncNone, so no fsync in the loop). The log is
			// rotated off-clock every 32k batches to bound disk use.
			dir, err := os.MkdirTemp("", "rbbench-wal")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			ops := make([]rbq.Op, 0, mutBatch)
			for i := 0; i < mutBatch; i++ {
				ops = append(ops, rbq.AddEdge(graph.NodeID(i), graph.NodeID(i+1)))
			}
			st, err := store.Open(dir, store.Options{Sync: store.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			seq := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq++
				if err := st.Append(seq, ops); err != nil {
					b.Fatal(err)
				}
				if seq == 1<<15 {
					b.StopTimer()
					st.Close()
					os.RemoveAll(dir)
					if err := os.MkdirAll(dir, 0o755); err != nil {
						b.Fatal(err)
					}
					if st, err = store.Open(dir, store.Options{Sync: store.SyncNone}); err != nil {
						b.Fatal(err)
					}
					seq = 0
					b.StartTimer()
				}
			}
			b.StopTimer()
			st.Close()
		}},
		{"RecoverReplay", func(b *testing.B) {
			// One iteration = a full restart: load the 5k-node base image,
			// replay the 32-batch WAL tail into a live delta, publish the
			// snapshot, close.
			persistSetup(b)
			for i := 0; i < b.N; i++ {
				pdb, err := rbq.OpenDB(recoverDir, rbq.OpenOptions{Sync: rbq.SyncNone})
				if err != nil {
					b.Fatal(err)
				}
				if err := pdb.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	// The reduction's live-pair high-water mark is a property of the
	// fixture query, not of timing: measure it once per engine entry so
	// the report carries the empirical input for pair-table hint tuning.
	pairHW := map[string]int{
		"PreparedRBSimQuery": pl.Bounded(aux, bounded.Simulation, vp, opts, nil).Stats.PairHighWater,
		"PreparedRBSubQuery": pl.Bounded(aux, bounded.Subgraph, vp, opts, nil).Stats.PairHighWater,
	}

	if count < 1 {
		count = 1
	}
	results := make([]microResult, 0, len(suite))
	for _, bench := range suite {
		fmt.Fprintf(stderr, "bench %-20s", bench.name)
		var res microResult
		var minNs, maxNs float64
		for run := 0; run < count; run++ {
			r := testing.Benchmark(bench.fn)
			cur := microResult{
				Name:        bench.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if run == 0 || cur.NsPerOp < minNs {
				minNs = cur.NsPerOp
			}
			if cur.NsPerOp > maxNs {
				maxNs = cur.NsPerOp
			}
			if run == 0 || cur.NsPerOp < res.NsPerOp {
				res = cur
			}
		}
		// The best run is the stable statistic under background-load
		// noise; the relative spread across runs is recorded so -compare
		// can tighten its tolerance on benchmarks that prove stable.
		if minNs > 0 {
			res.NsSpread = (maxNs - minNs) / minNs
		}
		res.PairHighWater = pairHW[bench.name]
		if bench.name == "QueryCacheHit" {
			cs := qdb.PlanCacheStats()
			res.PlanCacheHits, res.PlanCacheMisses = cs.Hits, cs.Misses
			fmt.Fprintf(stderr, " [plan cache %d hit(s) / %d miss(es)]", cs.Hits, cs.Misses)
		}
		fmt.Fprintf(stderr, " %12.0f ns/op %8d B/op %6d allocs/op (spread %.1f%%)\n",
			res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, 100*res.NsSpread)
		results = append(results, res)
	}

	// The closed-loop serving entries run once, after the micro suite
	// (they stand their own DB + HTTP stack over g, heap that must not
	// sit resident while the engine entries are measured).
	serve, err := runServe(g, q, vp, stderr)
	if err != nil {
		return fmt.Errorf("serving benchmark: %w", err)
	}
	results = append(results, serve...)

	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		if _, err = os.Stdout.Write(out); err != nil {
			return err
		}
	} else if err = os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	if comparePath != "" {
		return compareBaseline(results, base, comparePath, tolerance, nsGate, stderr)
	}
	return nil
}
