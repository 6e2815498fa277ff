// Command benchmark is the repository's end-to-end benchmark: it
// generates a workload from a seed, builds and launches the real rbqd,
// drives it over loopback, checks every answer, and prints the
// end-to-end metrics; a separate in-process traced run gives the
// per-layer metrics. See README.md.
//
//	go run ./benchmark -seed 1                       # all four workloads, both runs
//	go run ./benchmark -seed 1 -workload mixed_rw    # one (or a,b) workload
//	go run ./benchmark -seed 1 -repeat 2             # two sets, and whether they agree
//
// The driver named in BENCHMARK.json calls it once per workload as
// `-workload <name> -seed <n> -seconds <s> -trace <0|1>`; the last line
// of standard output is then one JSON object with the end-to-end
// (-trace 0) or the per-layer (-trace 1) metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runResult is one workload run: the live run, and the traced one when
// asked for.
type runResult struct {
	live   *liveResult
	layers map[string]float64
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Int64("seed", 1, "workload seed: request order, the deal to clients, the write stream")
		names   = fs.String("workload", "", "workload name[,name]; empty = all")
		repeat  = fs.Int("repeat", 1, "run this many complete sets and report whether their medians agree within each metric's bound")
		seconds = fs.Float64("seconds", 20, "measured seconds per end-to-end run")
		trace   = fs.Int("trace", -1, "0 = end-to-end run only; 1 = half as many end-to-end segments, then the traced run; -1 = both in full")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w, ok := workloadByName(name)
			if !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
				return 2
			}
			selected = append(selected, w)
		}
	}
	if *seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -repeat must be positive, -trace one of -1, 0, 1")
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	e := &env{
		outDir:  filepath.Join(root, "benchmark", "out"),
		clients: min(runtime.NumCPU(), 4),
		log:     stdout,
	}
	// The generator gets as many CPUs as it has clients.
	runtime.GOMAXPROCS(e.clients)
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// Everything temporary — graph files, access logs, database
	// directories — lives under one directory that goes when the process
	// does, also when it is interrupted (rbqd then dies with its parent).
	if e.tmp, err = os.MkdirTemp(e.outDir, "tmp-"); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(e.tmp)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(e.tmp)
		os.Exit(130)
	}()
	var buildTime time.Duration
	if e.bin, buildTime, err = buildRbqd(root, filepath.Join(root, ".bench_build")); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	serverProcs := os.Getenv("GOMAXPROCS")
	if serverProcs == "" {
		serverProcs = fmt.Sprint(runtime.NumCPU())
	}
	fmt.Fprintf(stdout, "rbq benchmark: commit=%s go=%s nproc=%d cpu=%q C=%d gomaxprocs(generator)=%d gomaxprocs(rbqd)=%s seed=%d seconds=%g\n",
		commit(root), runtime.Version(), runtime.NumCPU(), cpuModel(), e.clients, e.clients, serverProcs, *seed, *seconds)
	fmt.Fprintf(stdout, "rbqd: go build took %.2fs (not in setup_s); flags: -listen 127.0.0.1:0 -access-log <tmp>/access.log -graph <tmp>/graph.bin; mixed_rw adds -db <tmp>/db -compact-threshold %d; no X-Rbq-Trace, no -slow-query\n",
		buildTime.Seconds(), compactThreshold)

	code := 0
	sets := make([]map[string]*runResult, *repeat)
	for set := range sets {
		sets[set] = map[string]*runResult{}
		for _, w := range selected {
			if *repeat > 1 {
				fmt.Fprintf(stdout, "\n== %s (set %d of %d) ==\n", w.name, set+1, *repeat)
			} else {
				fmt.Fprintf(stdout, "\n== %s ==\n", w.name)
			}
			rr, err := runWorkload(e, w, *seed, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			sets[set][w.name] = rr
			if report(stdout, e, w, rr, *trace) {
				code = 1
			}
		}
	}
	if *repeat > 1 && !agreement(stdout, selected, sets) {
		code = 1
	}
	return code
}

// runWorkload runs one workload once: data set, live run, traced run.
func runWorkload(e *env, w workload, seed int64, seconds float64, trace int) (*runResult, error) {
	tmp, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	t0 := time.Now()
	d, err := buildDataset(w)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "data set: YoutubeLike(%d) |V|=%d |E|=%d |G|=%d, %d templates x %d pins, generated in %.2fs (not in setup_s)\n",
		w.nodes, d.g.NumNodes(), d.g.NumEdges(), d.g.Size(), len(d.patterns), w.pins, time.Since(t0).Seconds())

	sz := w.sizing(seconds)
	if trace == 1 {
		// Half the time, and so about half the segments: the other half
		// of the run's time is the traced run's.
		sz.seconds, sz.minSegments = seconds/2, 2
	}
	rr := &runResult{}
	if rr.live, err = runLive(e, w, d, seed, sz, tmp); err != nil {
		return nil, err
	}
	if trace != 0 && rr.live.fatal == "" {
		var tr *tracer
		if rr.layers, tr, err = runTraced(e, w, d, seed, rr.live, w.tracedSizing(), tmp); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		path := filepath.Join(e.outDir, "trace-"+w.name+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(e.log, "trace: %d spans in %s\n", len(tr.spans), path)
	}
	return rr, nil
}

// report prints one run and its result line; it returns true when the
// run must make the process exit non-zero.
func report(out io.Writer, e *env, w workload, rr *runResult, trace int) bool {
	live := rr.live
	fmt.Fprintf(out, "end-to-end: closed loop, C=%d connections", e.clients)
	if w.durable {
		fmt.Fprintf(out, " (%d readers + 1 open-loop writer at %g batches/s, SyncBatch)", max(e.clients-1, 1), float64(time.Second)/float64(writeInterval))
	}
	fmt.Fprintf(out, ", %d measured segments of %d queries\n", len(live.series["query_p50_us"]), live.samples["query_p50_us"])
	fmt.Fprintf(out, "  wall time: %s\n", strings.Join(live.phases, ", "))
	for _, def := range endToEnd {
		fmt.Fprintf(out, "  %-34s %14.4f %-6s n=%d", def.name, live.metrics[def.name], def.unit, live.samples[def.name])
		if s := live.series[def.name]; len(s) > 0 {
			fmt.Fprintf(out, "  per-segment %.4g  iqr %.4g", s, iqr(s))
		}
		fmt.Fprintln(out)
	}
	if w.durable {
		fmt.Fprintf(out, "  write stream: %d applies in the measured window, apply_p50_us %.1f, apply_p99_us %.1f, sent late by p99 %.2f ms (per-layer metrics)\n",
			live.applies, live.applyP50us, live.applyP99us, live.lateP99ms)
	}
	failedFrac := ratio(float64(live.failed), float64(live.attempted))
	fmt.Fprintf(out, "  %-34s %14.6f %-6s (%d of %d)\n", "failed_frac", failedFrac, "ratio", live.failed, live.attempted)
	fmt.Fprintf(out, "  %-34s %016x\n", "answers_digest", live.digest)
	for _, f := range live.failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	if rr.layers != nil {
		ts := w.tracedSizing()
		fmt.Fprintf(out, "per-layer: in-process, single-threaded; n: server.* %d requests, rbq/plan.probe/reduce/rbsim/rbsub %d queries, pattern/plan.compile %d templates, exact %d per semantics, unanchored %d, batch %d x %d items, delta.apply %d, compact %d, store appends %d, reach %d pairs\n",
			ts.replay, ts.replay, w.templates, ts.exact, ts.unanchored, ts.batchReps, coldBatchItems, ts.cycles*batchesPerCycle, ts.cycles, ts.appends, ts.reachPairs)
		for _, def := range perLayer {
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", def.name, rr.layers[def.name], def.unit)
		}
	}

	fatal := live.fatal
	switch {
	case fatal != "":
	case failedFrac > 0.01:
		fatal = fmt.Sprintf("failed_frac %.4f > 0.01", failedFrac)
	case live.generatorFrac > 0.9:
		// The closed-loop clients spend their time waiting; a generator
		// this busy is measuring itself.
		fatal = fmt.Sprintf("load generator saturated: loadgen.cpu_frac %.2f", live.generatorFrac)
	}
	if fatal != "" {
		fmt.Fprintf(out, "FATAL: %s\n", fatal)
	}

	metrics := map[string]jsonMetric{}
	if trace != 1 {
		for _, def := range endToEnd {
			metrics[def.name] = jsonMetric{live.metrics[def.name], def.unit}
		}
	}
	if trace != 0 && rr.layers != nil {
		for _, def := range perLayer {
			metrics[def.name] = jsonMetric{rr.layers[def.name], def.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{live.failed == 0 && fatal == "", live.attempted, live.failed, metrics})
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", line)
	return fatal != ""
}

// agreement prints, per workload and end-to-end metric, the sets'
// values and whether the worst is within the metric's bound of the
// best. It returns false when any pair disagrees.
func agreement(out io.Writer, selected []workload, sets []map[string]*runResult) bool {
	fmt.Fprintf(out, "\n== agreement of %d sets ==\n", len(sets))
	all := true
	for _, w := range selected {
		for _, def := range endToEnd {
			var vals []float64
			for _, set := range sets {
				vals = append(vals, set[w.name].live.metrics[def.name])
			}
			best, worst := quantile(vals, 0), quantile(vals, 1)
			if def.higher {
				best, worst = worst, best
			}
			// Worsening relative to the best set, in the metric's bad direction.
			worse := ratio(worst-best, best)
			if def.higher {
				worse = -worse
			}
			verdict := "agree"
			if worse > def.bound {
				verdict, all = "DISAGREE", false
			}
			fmt.Fprintf(out, "  %-13s %-22s %.5g  worst %+.1f%% of best, bound %.0f%%: %s\n",
				w.name, def.name, vals, 100*worse, 100*def.bound, verdict)
		}
	}
	return all
}

// moduleRoot finds the rbq module the benchmark runs in: the nearest
// directory at or above the working directory with rbq's go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	isRbq := regexp.MustCompile(`(?m)^module rbq$`)
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && isRbq.Match(data) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the rbq module: no go.mod with `module rbq` at or above the working directory")
		}
		dir = parent
	}
}

// commit is the checkout's git commit, when it is a git checkout.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
