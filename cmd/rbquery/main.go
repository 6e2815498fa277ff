// Command rbquery evaluates resource-bounded queries over a data graph in
// the textual or binary edge-list format (see cmd/graphgen).
//
// Pattern queries (strong simulation or subgraph isomorphism):
//
//	rbquery -graph g.graph -pattern q.pat -mode sim -alpha 0.001
//	rbquery -graph g.graph -pattern q.pat -mode sub -alpha 0.001 -exact
//
// Reachability queries:
//
//	rbquery -graph g.graph -mode reach -alpha 0.0005 -from 17 -to 93482
//
// Whole workload files (see internal/workload for the format):
//
//	rbquery -graph g.graph -mode workload -workload w.txt -alpha 0.001
//
// Update streams (see cmd/graphgen -ops for the generator, and
// internal/delta for the format: node/edge/deledge lines batched by
// "apply"): each batch lands atomically through DB.Apply, and an
// optional -pattern is evaluated against the mutated snapshot after
// every batch — the paper's query answering, under live updates:
//
//	rbquery -graph g.graph -mode update -ops stream.ops -pattern q.pat -alpha 0.001
//
// Persistent databases (-db): instead of loading a graph file into
// memory, open a durable database directory (WAL + base image, see
// internal/store). A fresh directory is bootstrapped from -graph; a
// non-fresh one resumes from disk and -graph is ignored. Update-mode
// batches then survive restarts, and update mode without -ops is a
// recovery check: open, print the recovery summary, close cleanly:
//
//	rbquery -db ./dbdir -graph g.graph -mode update -ops stream.ops
//	rbquery -db ./dbdir -mode sim -pattern q.pat -alpha 0.001
//	rbquery -db ./dbdir -mode update
//
// Against a running rbqd daemon (-server): sim/sub/update modes (and
// workload pattern entries) are sent over HTTP instead of evaluated
// locally; -tenant names the α-budget bucket to charge. The daemon may
// clamp α downward under load — the output reports the effective α and
// completeness alongside the matches:
//
//	rbquery -server http://localhost:8080 -mode sim -pattern q.pat -alpha 0.001
//	rbquery -server http://localhost:8080 -mode update -ops stream.ops
//
// Pattern files use the format of rbq.ParsePattern:
//
//	node 0 Michael*      # * marks the personalized node
//	node 1 CL!           # ! marks the output node
//	edge 0 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rbq"
	"rbq/internal/accuracy"
	"rbq/internal/delta"
	"rbq/internal/obs"
	"rbq/internal/reduce"
	"rbq/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rbquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath    = fs.String("graph", "", "data graph file (required unless -db resumes an existing directory)")
		dbPath       = fs.String("db", "", "persistent database directory (WAL + base image); fresh dirs bootstrap from -graph")
		serverURL    = fs.String("server", "", "rbqd base URL (e.g. http://localhost:8080): run sim/sub/workload/update against a daemon instead of a local DB")
		tenant       = fs.String("tenant", "", "-server mode: tenant whose α budget the queries charge (the X-Api-Key header)")
		patternPath  = fs.String("pattern", "", "pattern file (sim/sub/update modes)")
		workloadPath = fs.String("workload", "", "workload file (workload mode)")
		opsPath      = fs.String("ops", "", "op-stream file (update mode)")
		compactAt    = fs.Int("compact-threshold", 0, "update mode: live-delta op count that triggers compaction (0 = library default)")
		mode         = fs.String("mode", "sim", "sim | sub | reach | workload | update")
		alpha        = fs.Float64("alpha", 0.001, "resource ratio α ∈ (0,1)")
		exact        = fs.Bool("exact", false, "also run the exact baseline and report accuracy")
		stats        = fs.Bool("stats", false, "report the prepare/execute split of the query trace and the plan-cache counters (pattern, workload and update modes)")
		explain      = fs.Bool("explain", false, "pattern modes: print the compiled plan (candidate counts, anchor choice, budget split) before the query and the phase breakdown after it")
		trace        = fs.Bool("trace", false, "pattern modes: print the query's span tree (plan, reduction rounds, extraction, matching) to stderr")
		workers      = fs.Int("workers", 0, "workload mode: batch shard width (0 = one worker per CPU)")
		timeout      = fs.Duration("timeout", 0, "cancel query evaluation after this duration (0 = none; pattern and workload modes)")
		from         = fs.Int("from", -1, "source node (reach mode)")
		to           = fs.Int("to", -1, "target node (reach mode)")
		indexPath    = fs.String("index", "", "reach mode: load the oracle from this file if it exists (it must have been built from the same graph), else build and save it there")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// -timeout rides the request layer's cooperative cancellation: the
	// context's deadline is threaded into every engine loop, so a sweep
	// that would overrun is abandoned promptly instead of killed.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serverURL != "" {
		return runClient(ctx, clientConfig{
			base:     *serverURL,
			tenant:   *tenant,
			mode:     *mode,
			pattern:  *patternPath,
			workload: *workloadPath,
			ops:      *opsPath,
			alpha:    *alpha,
			timeout:  *timeout,
		}, stdout, stderr)
	}
	if *graphPath == "" && *dbPath == "" {
		fmt.Fprintln(stderr, "rbquery: -graph is required")
		return 2
	}
	start := time.Now()
	var db *rbq.DB
	if *dbPath != "" {
		var err error
		if db, err = openPersistent(*dbPath, *graphPath, stdout); err != nil {
			fmt.Fprintln(stderr, "rbquery:", err)
			return 1
		}
	} else {
		f, err := os.Open(*graphPath)
		if err != nil {
			fmt.Fprintln(stderr, "rbquery:", err)
			return 1
		}
		db, err = rbq.Load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "rbquery:", err)
			return 1
		}
	}
	g := db.Graph()
	fmt.Fprintf(stdout, "loaded |V|=%d |E|=%d (|G|=%d) in %v; budget α|G| = %d\n",
		g.NumNodes(), g.NumEdges(), g.Size(), time.Since(start).Round(time.Millisecond),
		reduce.Budget(*alpha, g.Size()))

	rc := 0
	switch *mode {
	case "sim", "sub":
		rc = runPattern(ctx, db, *mode, *patternPath, *alpha, patternFlags{
			exact: *exact, stats: *stats, explain: *explain, trace: *trace,
		}, stdout, stderr)
	case "reach":
		rc = runReach(db, *alpha, *from, *to, *exact, *indexPath, stdout, stderr)
	case "workload":
		rc = runWorkload(ctx, db, *workloadPath, *alpha, *stats, *workers, stdout, stderr)
	case "update":
		rc = runUpdate(ctx, db, *opsPath, *patternPath, *alpha, *compactAt, *stats, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "rbquery: unknown mode %q\n", *mode)
		return 2
	}
	// A persistent DB must close cleanly — the final fsync is part of the
	// durability contract, so a failure there flips a successful run.
	if *dbPath != "" {
		if err := db.Close(); err != nil {
			fmt.Fprintln(stderr, "rbquery: close:", err)
			if rc == 0 {
				rc = 1
			}
		}
	}
	return rc
}

// openPersistent opens (or bootstraps) a durable database directory and
// prints the recovery summary — what was loaded from the base image,
// what was replayed from the WAL, and whether a torn tail was dropped.
func openPersistent(dir, graphPath string, stdout io.Writer) (*rbq.DB, error) {
	db, err := rbq.OpenDB(dir, rbq.OpenOptions{BootstrapFile: graphPath})
	if err != nil {
		return nil, err
	}
	rs := db.RecoveryStats()
	switch {
	case rs.FreshDir:
		fmt.Fprintf(stdout, "db %s: fresh, bootstrapped at seq 0\n", dir)
	default:
		fmt.Fprintf(stdout, "db %s: base seq %d, replayed %d batch(es) (%d op(s)) from WAL\n",
			dir, rs.BaseSeq, rs.ReplayedBatches, rs.ReplayedOps)
	}
	// Both tail-drop paths deserve the warning: a torn/corrupt frame
	// (Truncated) and a decoded batch the replay rejected (DroppedBatches
	// without Truncated) — the second used to pass silently.
	if rs.Truncated || rs.DroppedBatches > 0 {
		fmt.Fprintf(stdout, "db %s: WARNING: dropped WAL tail during recovery (%d byte(s), %d unreplayable batch(es))\n",
			dir, rs.DroppedBytes, rs.DroppedBatches)
	}
	return db, nil
}

// queryErr reports a query failure, flagging an exceeded -timeout.
func queryErr(err error, stderr io.Writer) int {
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "rbquery: query canceled: -timeout exceeded")
		return 1
	}
	fmt.Fprintln(stderr, "rbquery:", err)
	return 1
}

// patternFlags bundles runPattern's option flags.
type patternFlags struct {
	exact   bool
	stats   bool
	explain bool
	trace   bool
}

func runPattern(ctx context.Context, db *rbq.DB, mode, path string, alpha float64, opt patternFlags, stdout, stderr io.Writer) int {
	if path == "" {
		fmt.Fprintln(stderr, "rbquery: -pattern is required for pattern modes")
		return 2
	}
	text, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "rbquery:", err)
		return 1
	}
	q, err := rbq.ParsePattern(string(text))
	if err != nil {
		fmt.Fprintln(stderr, "rbquery:", err)
		return 1
	}
	// -stats reads the prepare/execute split off the query's trace, and
	// -trace prints the trace.
	req := rbq.Request{Alpha: alpha, WantTrace: opt.stats || opt.trace}
	if mode == "sub" {
		req.Semantics = rbq.Subgraph
	}
	if opt.explain {
		// EXPLAIN first: what the request would execute — then run it and
		// close with the measured phase breakdown.
		ex, err := db.Explain(q, req)
		if err != nil {
			fmt.Fprintln(stderr, "rbquery:", err)
			return 1
		}
		fmt.Fprintln(stdout, "--- explain ---")
		ex.WriteText(stdout)
		fmt.Fprintln(stdout, "---------------")
		req.WantTrace = true
	}
	start := time.Now()
	res, err := db.Query(ctx, q, req)
	if err != nil {
		return queryErr(err, stderr)
	}
	elapsed := time.Since(start)
	if opt.trace {
		res.Trace.WriteText(stderr)
	}
	fmt.Fprintf(stdout, "%d match(es) in %v; |G_Q| = %d of budget %d; visited %d items\n",
		len(res.Matches), elapsed.Round(time.Microsecond), res.FragmentSize, res.Budget, res.Visited)
	if opt.stats {
		cs := db.PlanCacheStats()
		fmt.Fprintf(stdout, "stats: prepare %v, execute %v; plan cache %d hit(s) / %d miss(es)\n",
			res.Trace.Find(obs.PhasePlan).Dur.Round(time.Microsecond),
			res.Trace.Find(obs.PhaseExec).Dur.Round(time.Microsecond),
			cs.Hits, cs.Misses)
	}
	for _, m := range res.Matches {
		fmt.Fprintf(stdout, "  node %d (%s)\n", m, db.Graph().Label(m))
	}
	if opt.explain {
		fmt.Fprintln(stdout, "--- phases ---")
		res.Trace.WriteText(stdout)
	}
	if opt.exact {
		// The exact baseline is the same Request in Exact mode; its plan
		// comes from the cache the bounded run just filled.
		start = time.Now()
		truth, err := db.Query(ctx, q, rbq.Request{Semantics: req.Semantics, Mode: rbq.Exact})
		if err != nil {
			return queryErr(err, stderr)
		}
		acc := rbq.MatchAccuracy(truth.Matches, res.Matches)
		fmt.Fprintf(stdout, "exact baseline: %d match(es) in %v; accuracy P=%.3f R=%.3f F=%.3f\n",
			len(truth.Matches), time.Since(start).Round(time.Microsecond), acc.Precision, acc.Recall, acc.F)
	}
	return 0
}

func runReach(db *rbq.DB, alpha float64, from, to int, exact bool, indexPath string, stdout, stderr io.Writer) int {
	g := db.Graph()
	if from < 0 || to < 0 || from >= g.NumNodes() || to >= g.NumNodes() {
		fmt.Fprintln(stderr, "rbquery: reach mode needs valid -from and -to node ids")
		return 2
	}
	start := time.Now()
	oracle, how, err := obtainOracle(db, alpha, indexPath)
	if err != nil {
		fmt.Fprintln(stderr, "rbquery:", err)
		return 1
	}
	fmt.Fprintf(stdout, "index %s in %v (size %d)\n", how, time.Since(start).Round(time.Millisecond), oracle.IndexSize())
	start = time.Now()
	res := oracle.Reach(rbq.NodeID(from), rbq.NodeID(to))
	fmt.Fprintf(stdout, "reachable(%d, %d) = %v in %v (visited %d index items)\n",
		from, to, res.Answer, time.Since(start).Round(time.Microsecond), res.Visited)
	if exact {
		start = time.Now()
		truth := db.ReachExact(rbq.NodeID(from), rbq.NodeID(to))
		fmt.Fprintf(stdout, "exact BFS: %v in %v\n", truth, time.Since(start).Round(time.Microsecond))
		if res.Answer && !truth {
			fmt.Fprintln(stderr, "ERROR: false positive — this must never happen (Theorem 4c)")
			return 1
		}
	}
	return 0
}

// obtainOracle loads a persisted oracle when indexPath exists, otherwise
// builds one (and persists it when indexPath is set). The returned string
// describes what happened, for the status line.
func obtainOracle(db *rbq.DB, alpha float64, indexPath string) (*rbq.ReachOracle, string, error) {
	if indexPath != "" {
		if f, err := os.Open(indexPath); err == nil {
			defer f.Close()
			oracle, err := db.LoadReachOracle(f)
			if err != nil {
				return nil, "", fmt.Errorf("loading %s: %w", indexPath, err)
			}
			return oracle, "loaded from " + indexPath, nil
		}
	}
	oracle := db.BuildReachOracle(alpha)
	if indexPath == "" {
		return oracle, "built", nil
	}
	f, err := os.Create(indexPath)
	if err != nil {
		return nil, "", fmt.Errorf("saving %s: %w", indexPath, err)
	}
	defer f.Close()
	if err := oracle.Save(f); err != nil {
		return nil, "", fmt.Errorf("saving %s: %w", indexPath, err)
	}
	return oracle, "built and saved to " + indexPath, nil
}

// runUpdate streams mutation batches into the DB and, when a pattern is
// given, answers it against the snapshot after every batch — the
// dynamic-query-answering loop: updates land atomically, readers see
// epochs, compaction happens off the request path at the threshold.
//
// Failure mid-stream — a malformed line or a batch the DB rejects —
// does not discard the run: every batch before the failure stays
// applied (and, with -db, durable), the summary reports the partial
// progress, and the error names the batch index and the ops-file line
// it starts at. Exit is nonzero.
func runUpdate(ctx context.Context, db *rbq.DB, opsPath, patternPath string, alpha float64, compactAt int, stats bool, stdout, stderr io.Writer) int {
	var batches []delta.Batch
	var parseErr error
	switch {
	case opsPath != "":
		f, err := os.Open(opsPath)
		if err != nil {
			fmt.Fprintln(stderr, "rbquery:", err)
			return 1
		}
		// ReadBatches hands back the well-formed prefix alongside a parse
		// error, so a truncated or damaged stream still applies what it can.
		batches, parseErr = delta.ReadBatches(f)
		f.Close()
	case !db.MutationStats().Persistent:
		fmt.Fprintln(stderr, "rbquery: -ops is required for update mode (without -db there is nothing to check)")
		return 2
	default:
		// No ops against a durable DB is a recovery check: the open above
		// already printed the recovery summary (including any dropped WAL
		// tail); fall through with zero batches so the state summary and a
		// clean close still run.
	}
	if compactAt > 0 {
		db.SetCompactThreshold(compactAt)
	}
	var q *rbq.Pattern
	if patternPath != "" {
		text, err := os.ReadFile(patternPath)
		if err != nil {
			fmt.Fprintln(stderr, "rbquery:", err)
			return 1
		}
		if q, err = rbq.ParsePattern(string(text)); err != nil {
			fmt.Fprintln(stderr, "rbquery:", err)
			return 1
		}
	}
	applied, totalOps := 0, 0
	var applyErr error
	var compactionsSeen uint64
	start := time.Now()
	for i, batch := range batches {
		if err := db.Apply(batch.Ops); err != nil {
			applyErr = fmt.Errorf("batch %d (ops line %d): %w", i, batch.Line, err)
			break
		}
		applied++
		totalOps += len(batch.Ops)
		if ms := db.MutationStats(); ms.Compactions > compactionsSeen {
			compactionsSeen = ms.Compactions
			fmt.Fprintf(stdout, "compaction %d after batch %d: %s, %d touched node(s), %v\n",
				ms.Compactions, i, ms.Mode, ms.LastCompactTouchedNodes,
				time.Duration(ms.LastCompactNs).Round(time.Microsecond))
		}
		if q != nil {
			res, err := db.Query(ctx, q, rbq.Request{Alpha: alpha})
			if err != nil {
				return queryErr(err, stderr)
			}
			ms := db.MutationStats()
			fmt.Fprintf(stdout, "batch %d (%d ops): epoch %d, %d match(es), |G_Q| = %d of budget %d\n",
				i, len(batch.Ops), ms.Epoch, len(res.Matches), res.FragmentSize, res.Budget)
		}
	}
	elapsed := time.Since(start)
	// The summary reflects the last good epoch whether or not the stream
	// finished — partial progress is progress.
	ms := db.MutationStats()
	g := db.Graph()
	fmt.Fprintf(stdout, "applied %d of %d batch(es), %d op(s) in %v; now |V|=%d |E|=%d; epoch %d, %d live delta op(s), %d compaction(s)\n",
		applied, len(batches), totalOps, elapsed.Round(time.Microsecond),
		g.NumNodes(), g.NumEdges(), ms.Epoch, ms.LiveDeltaOps, ms.Compactions)
	if ms.Persistent {
		fmt.Fprintf(stdout, "durable through seq %d\n", ms.Seq)
	}
	if stats {
		cs := db.PlanCacheStats()
		fmt.Fprintf(stdout, "stats: plan cache %d hit(s) / %d miss(es) / %d invalidation(s)\n",
			cs.Hits, cs.Misses, cs.Invalidations)
	}
	if applyErr != nil {
		fmt.Fprintf(stderr, "rbquery: %v (the %d batch(es) before it remain applied)\n", applyErr, applied)
		return 1
	}
	if parseErr != nil {
		fmt.Fprintf(stderr, "rbquery: %s: %v (applied the %d well-formed batch(es) before it)\n", opsPath, parseErr, applied)
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, db *rbq.DB, path string, alpha float64, stats bool, workers int, stdout, stderr io.Writer) int {
	if path == "" {
		fmt.Fprintln(stderr, "rbquery: -workload is required for workload mode")
		return 2
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "rbquery:", err)
		return 1
	}
	wl, err := workload.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "rbquery:", err)
		return 1
	}
	if err := wl.Validate(db.Graph()); err != nil {
		fmt.Fprintln(stderr, "rbquery:", err)
		return 1
	}

	if len(wl.Patterns) > 0 {
		// Workload files repeat a handful of pattern templates at many
		// pins. The DB's plan cache dedups templates by textual identity,
		// so QueryBatch compiles each distinct template exactly once even
		// though every parsed query carries its own *Pattern.
		qs := make([]rbq.AnchoredQuery, len(wl.Patterns))
		for i, q := range wl.Patterns {
			qs[i] = rbq.AnchoredQuery{Q: q.P, At: q.VP}
		}
		start := time.Now()
		results, err := db.QueryBatch(ctx, qs, rbq.Request{Alpha: alpha, WantTrace: stats}, workers)
		if err != nil {
			return queryErr(err, stderr)
		}
		elapsed := time.Since(start)
		accSum := 0.0
		for i, q := range wl.Patterns {
			exact, err := db.Query(ctx, q.P, rbq.Request{Mode: rbq.Exact, Anchor: rbq.Pin(q.VP)})
			if err != nil {
				return queryErr(err, stderr)
			}
			accSum += rbq.MatchAccuracy(exact.Matches, results[i].Matches).F
		}
		fmt.Fprintf(stdout, "patterns: %d queries in %v, mean accuracy %.3f\n",
			len(wl.Patterns), elapsed.Round(time.Millisecond), accSum/float64(len(wl.Patterns)))
		if stats {
			var prep time.Duration
			for _, r := range results {
				// A batch item that failed carries no trace.
				if ps := r.Trace.Find(obs.PhasePlan); ps != nil {
					prep += ps.Dur
				}
			}
			cs := db.PlanCacheStats()
			fmt.Fprintf(stdout, "stats: %d distinct template(s); prepare %v, execute %v; plan cache %d hit(s) / %d miss(es)\n",
				cs.Misses, prep.Round(time.Microsecond), elapsed.Round(time.Microsecond), cs.Hits, cs.Misses)
		}
	}
	if len(wl.Reach) > 0 {
		oracle := db.BuildReachOracle(alpha)
		truth := make([]bool, len(wl.Reach))
		got := make([]bool, len(wl.Reach))
		start := time.Now()
		for i, q := range wl.Reach {
			truth[i] = q.Truth
			got[i] = oracle.Reach(q.From, q.To).Answer
		}
		elapsed := time.Since(start)
		acc := accuracy.Booleans(truth, got, nil)
		fp := accuracy.FalsePositives(truth, got)
		fmt.Fprintf(stdout, "reachability: %d queries in %v, accuracy %.3f, false positives %d\n",
			len(wl.Reach), elapsed.Round(time.Millisecond), acc.F, fp)
		if fp > 0 {
			fmt.Fprintln(stderr, "ERROR: false positives — this must never happen (Theorem 4c)")
			return 1
		}
	}
	return 0
}
