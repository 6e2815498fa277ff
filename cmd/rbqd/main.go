// Command rbqd is the rbq serving daemon: one long-running process
// owning one DB — in-memory from a graph file, or durable from a
// database directory — behind an HTTP/JSON API whose core is resource
// governance (see internal/server):
//
//	rbqd -listen :8080 -graph g.graph
//	rbqd -listen :8080 -db ./dbdir                 # resume a durable DB
//	rbqd -listen :8080 -db ./dbdir -graph g.graph  # bootstrap a fresh one
//
// Time to ready is the O(|G|) load: decoding the graph file and building
// the auxiliary structure, once. A durable restart loads its base image
// instead and does not open -graph. One line says what it cost:
//
//	rbqd: loaded |V|=1000000 |E|=2798248 in 301.2 ms (fresh), listening after 303.0 ms
//
// Queries are admitted through a bounded in-flight limit plus a small
// bounded wait queue (overflow → 429 + Retry-After), carry deadlines
// end to end, and are α-governed per tenant (the X-Api-Key header):
// each tenant owns a visits-per-second token bucket charged from
// evaluation actuals, and an over-budget tenant — or a saturated
// server — gets its α clamped downward instead of being rejected.
// Every response reports the effective α and completeness telemetry.
//
//	curl -s localhost:8080/v1/query -d '{"pattern":"node 0 A*\nnode 1 B\nedge 0 1","alpha":0.001}'
//	curl -s localhost:8080/v1/apply --data-binary @stream.ops
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM trigger a graceful shutdown: new requests are
// answered 503, in-flight evaluations drain (bounded by
// -drain-timeout), and the DB is closed — on a durable DB the final
// fsync is part of the exit status.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rbq"
	"rbq/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil)) }

// run is the testable daemon body. When ready is non-nil it receives
// the actual listen address once serving (so tests can bind ":0");
// when shutdown is non-nil a receive triggers the same graceful exit
// as SIGTERM.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, shutdown <-chan struct{}) int {
	started := time.Now()
	fs := flag.NewFlagSet("rbqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen    = fs.String("listen", ":8080", "address to serve on")
		graphPath = fs.String("graph", "", "data graph file, text or binary; with -db it only seeds a fresh directory (a restart loads the directory's base image and does not open it)")
		dbPath    = fs.String("db", "", "persistent database directory (WAL + base image); fresh dirs bootstrap from -graph")
		compactAt = fs.Int("compact-threshold", 0, "live-delta op count that triggers compaction (0 = library default)")

		maxInFlight  = fs.Int("max-inflight", 0, "admission: concurrently executing requests (0 = 4×GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 0, "admission: bounded wait queue length (0 = same as -max-inflight, negative = no queue)")
		maxQueueWait = fs.Duration("max-queue-wait", 2*time.Second, "admission: longest a queued request may wait for a slot")
		defTimeout   = fs.Duration("default-timeout", 30*time.Second, "evaluation deadline when the request carries none")
		maxTimeout   = fs.Duration("max-timeout", 2*time.Minute, "cap on client-supplied timeout_ms")

		tenantRate  = fs.Float64("tenant-rate", 0, "per-tenant α budget in visits/second (0 = no tenant budgets)")
		tenantBurst = fs.Float64("tenant-burst", 0, "per-tenant bucket capacity (0 = 4×rate)")
		alphaFloor  = fs.Float64("alpha-floor", 1e-5, "lower bound α clamping may degrade to")

		batchWorkers = fs.Int("batch-workers", 0, "workers sharding /v1/query_batch items (0 = one per CPU)")
		accessLog    = fs.String("access-log", "-", `access log destination: "-" = stdout, "" = off, else a file path`)
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "shutdown: longest to wait for in-flight requests to finish")

		slowQuery    = fs.Duration("slow-query", 0, "capture queries running at least this long (also clamped or deadlined ones) with their trace; 0 = off")
		slowQueryLog = fs.String("slow-query-log", "-", `slow-query log destination: "-" = stdout, "" = ring only (/v1/debug/slow), else a file path`)
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this address (own listener, no admission control); empty = off")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *graphPath == "" && *dbPath == "" {
		fmt.Fprintln(stderr, "rbqd: -graph or -db is required")
		return 2
	}

	db, err := openDB(*dbPath, *graphPath, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "rbqd:", err)
		return 1
	}
	loaded := time.Since(started)
	if *compactAt > 0 {
		db.SetCompactThreshold(*compactAt)
	}

	cfg := server.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		MaxQueueWait:   *maxQueueWait,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		AlphaFloor:     *alphaFloor,
		BatchWorkers:   *batchWorkers,
		SlowQuery:      *slowQuery,
	}
	var logFile, slowFile *os.File
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = stdout
	default:
		logFile, err = os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "rbqd:", err)
			db.Close()
			return 1
		}
		cfg.AccessLog = logFile
	}
	if *slowQuery > 0 {
		switch *slowQueryLog {
		case "":
		case "-":
			cfg.SlowLog = stdout
		default:
			slowFile, err = os.OpenFile(*slowQueryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(stderr, "rbqd:", err)
				db.Close()
				return 1
			}
			cfg.SlowLog = slowFile
		}
	}

	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "rbqd:", err)
		db.Close()
		return 1
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ErrorLog:          log.New(stderr, "rbqd: http: ", 0),
	}
	// Installed before the address is announced: a supervisor that reads
	// "listening" may send SIGTERM at once, and a signal that lands before
	// Notify kills the process instead of draining it.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	origin := "fresh"
	if *dbPath != "" && !db.RecoveryStats().FreshDir {
		origin = "recovered"
	}
	g := db.Graph()
	fmt.Fprintf(stdout, "rbqd: loaded |V|=%d |E|=%d in %.1f ms (%s), listening after %.1f ms\n",
		g.NumNodes(), g.NumEdges(), loaded.Seconds()*1e3, origin, time.Since(started).Seconds()*1e3)
	fmt.Fprintf(stdout, "rbqd: listening on %s\n", ln.Addr())

	// The pprof surface gets its own listener and mux: runtime profiling
	// must stay reachable when the serving port is saturated, and must
	// never be exposed on the serving port by accident (importing
	// net/http/pprof for its side effect would register on the default
	// mux; registering by hand keeps the exposure explicit and bound to
	// -debug-addr).
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(stderr, "rbqd:", err)
			db.Close()
			return 1
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		fmt.Fprintf(stdout, "rbqd: debug (pprof) listening on %s\n", dln.Addr())
		go debugSrv.Serve(dln)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	rc := 0
	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "rbqd: %v, draining\n", sig)
	case <-shutdownCh(shutdown):
		fmt.Fprintln(stdout, "rbqd: shutdown requested, draining")
	case err := <-serveErr:
		fmt.Fprintln(stderr, "rbqd: serve:", err)
		rc = 1
	}

	// Graceful shutdown, phase one: mark draining so keep-alive clients
	// get 503 + Connection: close — which also writes out the batched
	// access log and turns batching off, so the log is complete when the
	// files close below; phase two: let the HTTP server drain
	// in-flight handlers (each holds its admission slot until its
	// evaluation finishes); phase three: close the DB — its final fsync
	// is part of the durability contract, so a failure flips the exit.
	srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "rbqd: drain:", err)
		rc = 1
	}
	cancel()
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(stderr, "rbqd: close:", err)
		rc = 1
	}
	if logFile != nil {
		logFile.Close()
	}
	if slowFile != nil {
		slowFile.Close()
	}
	fmt.Fprintln(stdout, "rbqd: stopped")
	return rc
}

// shutdownCh lifts a possibly-nil test channel into a selectable one
// (a nil channel blocks forever, which is exactly right).
func shutdownCh(ch <-chan struct{}) <-chan struct{} { return ch }

// openDB opens the daemon's database: a durable directory when dbPath
// is set (a fresh one is seeded from graphPath; one that holds data is
// resumed and graphPath not opened), else an in-memory DB loaded from
// graphPath. Either way the graph file is decoded and the auxiliary
// structure built at most once. Recovery is summarized on stdout, and any
// dropped WAL tail — torn bytes or replay-invalid batches — is warned
// about loudly: the daemon is about to serve that state.
func openDB(dbPath, graphPath string, stdout io.Writer) (*rbq.DB, error) {
	if dbPath == "" {
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return rbq.Load(f)
	}
	db, err := rbq.OpenDB(dbPath, rbq.OpenOptions{BootstrapFile: graphPath})
	if err != nil {
		return nil, err
	}
	rs := db.RecoveryStats()
	if rs.FreshDir {
		fmt.Fprintf(stdout, "rbqd: db %s: fresh, bootstrapped at seq 0\n", dbPath)
	} else {
		fmt.Fprintf(stdout, "rbqd: db %s: base seq %d, replayed %d batch(es) (%d op(s)) from WAL\n",
			dbPath, rs.BaseSeq, rs.ReplayedBatches, rs.ReplayedOps)
	}
	if rs.Truncated || rs.DroppedBatches > 0 {
		fmt.Fprintf(stdout, "rbqd: db %s: WARNING: dropped WAL tail (%d byte(s), %d batch(es)) during recovery\n",
			dbPath, rs.DroppedBytes, rs.DroppedBatches)
	}
	return db, nil
}
