package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rbq"
	"rbq/internal/dataset"
	"rbq/internal/server"
)

// env is what every run of one process shares.
type env struct {
	bin     string // the built rbqd
	outDir  string // benchmark/out: traces, rbqd stderr, and tmp
	tmp     string // this process's temp dir, removed at exit
	clients int    // C = min(nproc, 4)
	log     io.Writer
}

// sizing is how much one run does. runLive derives it from -seconds;
// the smoke test shrinks it.
type sizing struct {
	seconds float64 // measured time to fill
	listLen int     // requests per reader per segment
	// minSegments passes are measured however long they take: the median
	// over segments needs a few.
	minSegments int
	// setups is how many times rbqd is started and warmed; setup_s is
	// the median. setupWarm is the warm-up a set-up includes.
	setups, setupWarm int
	// warm is how many requests of its list each reader sends unmeasured
	// before the first segment; warmCycles is how many compaction cycles
	// the warm-up of a durable workload covers on top.
	warm, warmCycles int
}

// The write stream of the durable workload: 50 batches a second puts
// 1000 applies and 31 compactions into a 20 s run (≥1000 samples under
// apply_p99_us, ≥25 compaction cycles), and 3200 ops/s is far below what
// rbqd sustains, so the stream is open-loop in fact and not only by
// intent.
const (
	writeInterval    = 20 * time.Millisecond
	compactThreshold = 2048
	batchesPerCycle  = compactThreshold / batchOps
)

func (w workload) sizing(seconds float64) sizing {
	// Every segment holds ≥1000 queries so that ≥10 lie beyond p99.
	listLen := max(int(w.readerRate*seconds/float64(w.segments)), 1000)
	return sizing{
		seconds: seconds,
		listLen: listLen, minSegments: 3,
		setups: 3, setupWarm: min(listLen, w.setupWarm),
		warm: min(listLen, w.warm), warmCycles: 4,
	}
}

// liveResult is one end-to-end run.
type liveResult struct {
	metrics  map[string]float64   // every end-to-end metric
	series   map[string][]float64 // per-segment values of the query metrics
	samples  map[string]int
	digest   uint64
	fatal    string // non-empty: the run must exit non-zero
	failures []string
	phases   []string // where the run's wall time went, for the log

	attempted, failed int

	// Inputs of the per-layer metrics that come from the live run.
	before, after server.StatsResponse
	queries       int     // completed 200-OK queries inside the measured window
	clamped       int     // of those, answered with a clamped α
	applies       int     // applies inside it
	logBytes      int64   // access-log growth over it
	applyP50us    float64 // of the write stream, pooled over the window
	applyP99us    float64
	lateP99ms     float64
	generatorFrac float64 // generator CPU / (wall × C)
	graphFile     string  // kept for the traced run until cleanup
}

// ops is what rbqd completed inside the measured window.
func (r *liveResult) ops() int { return r.queries + r.applies }

func (r *liveResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// reader is one closed-loop client.
type reader struct {
	c         *conn
	list      []int32
	lat       []float64 // µs, this segment
	ok        int       // 200-OK answers this segment
	clamped   int       // answers whose α the server clamped, this segment
	digest    uint64
	lastEpoch uint64
	mono      bool // check epoch monotonicity (durable workloads)

	attempted, failed int
	failures          []string
}

func (r *reader) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 4 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// pass sends the first n requests of the reader's list, checking every
// answer.
func (r *reader) pass(pool []request, n int) {
	r.lat = r.lat[:0]
	r.ok, r.clamped = 0, 0
	h := fnv.New64a()
	for _, qi := range r.list[:n] {
		req := &pool[qi]
		r.attempted++
		start := time.Now()
		status, body, err := r.c.post(req.route, req.body)
		r.lat = append(r.lat, since(start))
		if err != nil {
			r.fail("%s: %v", req.route, err)
			continue
		}
		if status != http.StatusOK {
			r.fail("%s: HTTP %d: %.200s", req.route, status, body)
			continue
		}
		r.ok++
		var why string
		var epoch uint64
		if req.single != nil {
			var resp server.QueryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				r.fail("%s: bad body: %v", req.route, err)
				continue
			}
			why, epoch = checkQueryAnswer(req.single, &resp), resp.Epoch
			if resp.Governance.Clamped {
				r.clamped++
			}
			hashMatches(h, resp.Matches)
		} else {
			var resp server.BatchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				r.fail("%s: bad body: %v", req.route, err)
				continue
			}
			why, epoch = checkBatchAnswer(req.batch, &resp), resp.Epoch
			if resp.Governance.Clamped {
				r.clamped++
			}
			for _, item := range resp.Results {
				hashMatches(h, item.Matches)
			}
		}
		if why == "" && r.mono {
			why = checkEpoch(r.lastEpoch, epoch)
		}
		r.lastEpoch = epoch
		if why != "" {
			r.fail("%s: %s", req.route, why)
		}
	}
	r.digest = h.Sum64()
}

// segment runs one pass of every reader over the first n requests of
// its list and returns the wall time.
func segment(readers []*reader, pool []request, n int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.pass(pool, n)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// applySample is one write batch of the open-loop stream.
type applySample struct {
	due    time.Time
	lateMs float64 // how long after due it was sent
	us     float64 // from due to answer
}

// writer is the open-loop ingest stream: one batch every writeInterval,
// whatever the previous one took.
type writer struct {
	c    *conn
	gen  *opGen
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	samples   []applySample
	lastAcked uint64
	attempted int
	failures  []string // one entry per failed batch
}

func (w *writer) sent() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.attempted
}

func (w *writer) run() {
	defer close(w.done)
	start := time.Now()
	for i := 0; ; i++ {
		ops, err := w.gen.next(batchDels, batchAdds)
		if err != nil {
			w.mu.Lock()
			w.failures = append(w.failures, err.Error())
			w.mu.Unlock()
			return
		}
		body := applyBody(ops)
		due := start.Add(time.Duration(i) * writeInterval)
		select {
		case <-w.stop:
			return
		case <-time.After(time.Until(due)):
		}
		sentAt := time.Now()
		seq, why := postApply(w.c, body)
		s := applySample{due: due, lateMs: sentAt.Sub(due).Seconds() * 1e3, us: since(due)}
		w.mu.Lock()
		w.attempted++
		if why == "" && seq <= w.lastAcked {
			why = fmt.Sprintf("durable_seq %d after %d", seq, w.lastAcked)
		}
		if why != "" {
			w.failures = append(w.failures, why)
		} else {
			w.lastAcked = seq
			w.samples = append(w.samples, s)
		}
		w.mu.Unlock()
	}
}

// postApply sends one batch and returns the acked durable_seq.
func postApply(c *conn, body []byte) (uint64, string) {
	status, resp, err := c.post(server.RouteApply, body)
	if err != nil {
		return 0, fmt.Sprintf("%s: %v", server.RouteApply, err)
	}
	if status != http.StatusOK {
		return 0, fmt.Sprintf("%s: HTTP %d: %.200s", server.RouteApply, status, resp)
	}
	var ar server.ApplyResponse
	if err := json.Unmarshal(resp, &ar); err != nil {
		return 0, fmt.Sprintf("%s: bad body: %v", server.RouteApply, err)
	}
	if ar.Batches != 1 || ar.Ops != batchOps {
		return 0, fmt.Sprintf("%s: acked %d batch(es), %d ops; sent 1, %d", server.RouteApply, ar.Batches, ar.Ops, batchOps)
	}
	return ar.DurableSeq, ""
}

// runCheckSet asks every check pair bounded and exact over the given
// connections and returns the mean F-measure. The pairs are dealt to
// the connections but summed in order, so the mean repeats exactly.
func runCheckSet(conns []*conn, check []checkPair, res *liveResult) float64 {
	f := make([]float64, len(check))
	why := make([]string, len(check))
	ask := func(c *conn, req *request) (*server.QueryResponse, string) {
		status, body, err := c.post(req.route, req.body)
		if err != nil {
			return nil, err.Error()
		}
		if status != http.StatusOK {
			return nil, fmt.Sprintf("HTTP %d: %.200s", status, body)
		}
		var resp server.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, "bad body: " + err.Error()
		}
		return &resp, checkQueryAnswer(req.single, &resp)
	}
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < len(check); i += len(conns) {
				p := &check[i]
				bounded, w1 := ask(c, &p.bounded)
				exact, w2 := ask(c, &p.exact)
				switch {
				case w1 != "":
					why[i] = "bounded: " + w1
				case w2 != "":
					why[i] = "exact: " + w2
				default:
					if p.sub && exact.Complete {
						why[i] = checkSubset(bounded.Matches, exact.Matches)
					}
					f[i] = rbq.MatchAccuracy(toNodeIDs(exact.Matches), toNodeIDs(bounded.Matches)).F
				}
			}
		}()
	}
	wg.Wait()
	res.attempted += 2 * len(check)
	for i, w := range why {
		if w != "" {
			res.fail("check pair %d: %s", i, w)
		}
	}
	return mean(f)
}

func toNodeIDs(ms []int64) []rbq.NodeID {
	out := make([]rbq.NodeID, len(ms))
	for i, m := range ms {
		out[i] = rbq.NodeID(m)
	}
	return out
}

// runLive is the end-to-end run of one workload against the real rbqd.
func runLive(e *env, w workload, d *corpus, seed int64, sz sizing, tmp string) (*liveResult, error) {
	res := &liveResult{
		metrics: map[string]float64{}, series: map[string][]float64{}, samples: map[string]int{},
	}
	nReaders := e.clients
	if w.durable {
		nReaders = max(e.clients-1, 1) // one connection is the writer's
	}
	last := time.Now()
	mark := func(phase string) {
		res.phases = append(res.phases, fmt.Sprintf("%s %.1fs", phase, time.Since(last).Seconds()))
		last = time.Now()
	}
	ld := buildLoad(w, d, seed, nReaders, sz.listLen)

	res.graphFile = filepath.Join(tmp, "graph.bin")
	if err := saveGraph(d.g, res.graphFile); err != nil {
		return nil, err
	}
	stderrPath := filepath.Join(e.outDir, "rbqd-"+w.name+".stderr")
	os.Remove(stderrPath)
	mark("requests and graph file")

	// Set-up, several times over: exec → /healthz OK → the first
	// setupWarm requests answered. The last rbqd started is the one
	// measured. Graph generation and `go build` are not in it.
	var dm *daemon
	defer func() {
		if dm != nil && dm.alive() {
			dm.kill() // only an error return leaves it running
		}
	}()
	var dbDir, accessLog string
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if dm != nil {
			if err := dm.stop(); err != nil {
				return nil, fmt.Errorf("rbqd shutdown: %w", err)
			}
			os.RemoveAll(dbDir)
		}
		args := []string{"-graph", res.graphFile}
		if w.durable {
			dbDir = filepath.Join(tmp, fmt.Sprintf("db-%d", i))
			// SyncBatch (fsync per acked batch) is rbqd's only policy.
			args = append(args, "-db", dbDir, "-compact-threshold", fmt.Sprint(compactThreshold))
		}
		accessLog = filepath.Join(tmp, fmt.Sprintf("access-%d.log", i))
		t0 := time.Now()
		var err error
		if dm, err = startDaemon(e.bin, args, accessLog, stderrPath); err != nil {
			return nil, err
		}
		c, err := dial(dm.addr)
		if err != nil {
			return nil, err
		}
		for _, qi := range ld.lists[0][:sz.setupWarm] {
			req := &ld.pool[qi]
			if status, body, err := c.post(req.route, req.body); err != nil || status != http.StatusOK {
				c.close()
				return nil, fmt.Errorf("set-up warm-up %s: HTTP %d %.200s %v", req.route, status, body, err)
			}
		}
		c.close()
		setups = append(setups, time.Since(t0).Seconds())
	}
	mark("set-ups")
	res.metrics["setup_s"] = median(setups)
	res.series["setup_s"] = setups
	res.samples["setup_s"] = len(setups)

	conns := make([]*conn, e.clients)
	for i := range conns {
		c, err := dial(dm.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}

	// Accuracy first, on the graph as loaded: the write stream has not
	// started, so the figure is the data set's and repeats exactly.
	res.metrics["accuracy_f1"] = runCheckSet(conns, ld.check, res)
	res.samples["accuracy_f1"] = len(ld.check)
	mark("accuracy check")

	readers := make([]*reader, nReaders)
	for i := range readers {
		readers[i] = &reader{c: conns[i], list: ld.lists[i], mono: w.durable}
	}
	var wr *writer
	if w.durable {
		wr = &writer{
			c: conns[e.clients-1], gen: newOpGen(d.g, seed),
			stop: make(chan struct{}), done: make(chan struct{}),
		}
		if e.clients == 1 { // a 1-CPU host: the writer needs its own connection
			c, err := dial(dm.addr)
			if err != nil {
				return nil, err
			}
			defer c.close()
			wr.c = c
		}
		go wr.run()
	}

	// Warm-up: one short unmeasured pass; on the durable workload as many as
	// it takes for the write stream to get through warmCycles
	// compactions, so overlay, invalidation and compaction are in their
	// steady cycle when measuring starts.
	for {
		segment(readers, ld.pool, sz.warm)
		if wr == nil || wr.sent() >= sz.warmCycles*batchesPerCycle || !dm.alive() {
			break
		}
	}
	for _, r := range readers {
		r.attempted, r.failed, r.failures = 0, 0, nil
	}
	mark("warm-up")

	var err error
	if res.before, err = dm.stats(); err != nil {
		return nil, err
	}
	logBefore := fileSize(accessLog)
	cpu0, err := cpuSeconds(dm.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	t0 := time.Now()

	// The measured segments: whole passes until sz.seconds are filled
	// (to the nearest pass) — workload.segments of them at today's speed,
	// more from a faster rbqd, fewer on a slower host, so that a run takes
	// the time it was given.
	var digests []uint64
	var elapsed time.Duration
	for n := 0; n < sz.minSegments || elapsed.Seconds()*(1+0.5/float64(n)) < sz.seconds; n++ {
		wall := segment(readers, ld.pool, sz.listLen)
		elapsed = time.Since(t0)
		var lat []float64
		ok := 0
		h := fnv.New64a()
		for _, r := range readers {
			lat = append(lat, r.lat...)
			ok += r.ok
			res.clamped += r.clamped
			fmt.Fprintf(h, "%016x", r.digest)
		}
		digests = append(digests, h.Sum64())
		res.queries += ok
		res.series["query_p50_us"] = append(res.series["query_p50_us"], quantile(lat, 0.50))
		res.series["query_p99_us"] = append(res.series["query_p99_us"], quantile(lat, 0.99))
		res.series["queries_per_s"] = append(res.series["queries_per_s"], float64(ok)/wall.Seconds())
		res.samples["query_p50_us"] = len(lat)
		if !dm.alive() {
			break
		}
	}
	t1 := time.Now()
	mark("measured segments")
	cpu1, err := cpuSeconds(dm.pid())
	if err != nil {
		res.fatal = "rbqd died during the run"
	}
	self1 := selfCPUSeconds()
	if wr != nil {
		close(wr.stop)
		<-wr.done
	}
	if res.after, err = dm.stats(); err != nil && res.fatal == "" {
		res.fatal = "rbqd died during the run"
	}
	res.logBytes = fileSize(accessLog) - logBefore

	for _, name := range []string{"query_p50_us", "query_p99_us", "queries_per_s"} {
		res.metrics[name] = median(res.series[name])
		res.samples[name] = res.samples["query_p50_us"]
	}
	for _, r := range readers {
		res.attempted += r.attempted
		res.failed += r.failed
		res.failures = append(res.failures, r.failures...)
	}
	res.digest = digests[0]
	if !w.durable {
		if why := checkDigests(digests); why != "" {
			res.fail("%s", why)
		}
	}

	// Write latency: the open-loop stream's, timed from when each batch
	// was due, pooled over the measured segments.
	if wr != nil {
		var applyUs, late []float64
		for _, s := range wr.samples {
			if !s.due.Before(t0) && s.due.Before(t1) {
				applyUs = append(applyUs, s.us)
				late = append(late, s.lateMs)
			}
		}
		res.applies = len(applyUs)
		res.applyP50us, res.applyP99us = quantile(applyUs, 0.50), quantile(applyUs, 0.99)
		res.lateP99ms = quantile(late, 0.99)
		res.attempted += wr.attempted
		for _, f := range wr.failures {
			res.fail("%s", f)
		}
	}

	res.metrics["server_cpu_us_per_op"] = ratio((cpu1-cpu0)*1e6, float64(res.ops()))
	res.samples["server_cpu_us_per_op"] = res.ops()
	res.generatorFrac = (self1 - self0) / (t1.Sub(t0).Seconds() * float64(e.clients))
	if rss, err := peakRSSMB(dm.pid()); err == nil {
		res.metrics["rss_peak_mb"] = rss
		res.samples["rss_peak_mb"] = 1
	} else if res.fatal == "" {
		res.fatal = "rbqd died during the run"
	}

	// Durability: crash rbqd, restart it on the same directory, and it
	// must still hold every batch it acked.
	if wr != nil && res.fatal == "" {
		dm.kill()
		var err error
		dm, err = startDaemon(e.bin, []string{"-db", dbDir, "-compact-threshold", fmt.Sprint(compactThreshold)}, accessLog, stderrPath)
		if err != nil {
			return nil, fmt.Errorf("restart after crash: %w", err)
		}
		st, err := dm.stats()
		if err != nil {
			return nil, err
		}
		res.attempted++
		if why := checkRecovered(wr.lastAcked, st.Mutation.Seq); why != "" {
			res.failed += int(wr.lastAcked - st.Mutation.Seq)
			res.failures = append(res.failures, why)
		}
	}
	if res.fatal == "" {
		if err := dm.stop(); err != nil {
			res.fatal = "rbqd shutdown: " + err.Error()
		}
	}
	mark("crash check and shutdown")
	return res, nil
}

func saveGraph(g *rbq.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataset.WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
