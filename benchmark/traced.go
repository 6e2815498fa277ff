package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rbq"
	"rbq/internal/graph"
	"rbq/internal/obs"
	"rbq/internal/plan"
	"rbq/internal/server"
	"rbq/internal/store"
)

// The traced run replays the head of the workload's request list
// single-threaded inside this process and times the calls into each
// layer's public entry points from outside. It is separate from the
// end-to-end run, whose requests carry no tracing of any kind.

// span is one timed call. Spans of one replayed request share req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Req    int    `json:"req"`    // index in the replayed list; -1 = not tied to a request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	// Laid is set on spans adopted from rbq's own Request.WantTrace tree:
	// their duration was measured inside the engine, but the tree carries
	// no start times, so a child is laid out right after its previous
	// sibling inside its parent.
	Laid bool `json:"laid,omitempty"`
}

// tracer keeps spans in memory; write puts them out at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id and returns its duration in µs.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return float64(s.End-s.Start) / 1e3
}

// adopt hangs an engine span tree under parent, starting at start.
func (t *tracer) adopt(s *obs.Span, parent, req int, start int64) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: "rbq." + s.Name,
		Start: start, End: start + s.Dur.Nanoseconds(), Laid: true,
	})
	id := len(t.spans)
	for _, c := range s.Children {
		t.adopt(c, id, req, start)
		start += c.Dur.Nanoseconds()
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSizing is how much the traced run does.
type tracedSizing struct {
	replay     int // requests replayed through the handler
	exact      int // exact queries per semantics
	unanchored int
	batchReps  int
	reachPairs int
	cycles     int // apply/compact cycles of batchesPerCycle batches
	appends    int // WAL appends per sync policy
}

func (w workload) tracedSizing() tracedSizing {
	return tracedSizing{
		replay: w.traceN, exact: 16, unanchored: 8, batchReps: 3,
		reachPairs: 256, cycles: 3, appends: 64,
	}
}

// probe is one bounded anchored query of the engine probe set.
type probe struct {
	q   *rbq.Pattern
	at  rbq.NodeID
	sub bool
}

func (p probe) request(alpha float64) rbq.Request {
	req := rbq.Request{Alpha: alpha, Anchor: rbq.Pin(p.at)}
	if p.sub {
		req.Semantics = rbq.Subgraph
	}
	return req
}

// toRequest maps the wire form onto rbq.Request the way the handler's
// unexported buildRequest does.
func toRequest(qr *server.QueryRequest) rbq.Request {
	req := rbq.Request{Alpha: qr.Alpha, MaxSteps: qr.MaxSteps}
	if qr.Semantics == "sub" {
		req.Semantics = rbq.Subgraph
	}
	switch qr.Mode {
	case "exact":
		req.Mode = rbq.Exact
	case "unanchored":
		req.Mode = rbq.Unanchored
	}
	if qr.Anchor != nil {
		req.Anchor = rbq.Pin(rbq.NodeID(*qr.Anchor))
	}
	return req
}

func wireMatches(ms []rbq.NodeID) []int64 {
	out := make([]int64, len(ms))
	for i, m := range ms {
		out[i] = int64(m)
	}
	return out
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// countSpans counts the spans named name under s.
func countSpans(s *obs.Span, name string) int {
	n := 0
	if s.Name == name {
		n++
	}
	for _, c := range s.Children {
		n += countSpans(c, name)
	}
	return n
}

func spanUs(s *obs.Span) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Dur.Nanoseconds()) / 1e3
}

// tracedRun is the state of one traced run: the in-process DB, the
// metrics measured so far, and the spans.
type tracedRun struct {
	e    *env
	w    workload
	d    *corpus
	seed int64
	ts   tracedSizing
	tmp  string

	m   map[string]float64
	tr  *tracer
	ctx context.Context

	db   *rbq.DB
	g0   *rbq.Graph // the graph as loaded: stays a base CSR whatever db becomes
	aux0 *graph.Aux

	reqs    []*request // the replayed head of reader 0's list
	probes  []probe
	queryUs float64 // rbq.query_us, the base of the ratios
}

// timed runs f inside a span not tied to a request and returns its
// duration in µs.
func (t *tracedRun) timed(name string, f func() error) (float64, error) {
	return t.timedIn(name, 0, -1, f)
}

func (t *tracedRun) timedIn(name string, parent, req int, f func() error) (float64, error) {
	id := t.tr.begin(name, parent, req)
	err := f()
	return t.tr.end(id), err
}

// runTraced measures the per-layer metrics. live supplies the counts
// that only the real rbqd has (its /v1/stats deltas, access log and
// the generator's own figures).
func runTraced(e *env, w workload, d *corpus, seed int64, live *liveResult, ts tracedSizing, tmp string) (map[string]float64, *tracer, error) {
	t := &tracedRun{
		e: e, w: w, d: d, seed: seed, ts: ts, tmp: tmp,
		m: map[string]float64{}, tr: &tracer{t0: time.Now()}, ctx: context.Background(),
	}
	// The mutation steps change t.db, so every read-side step is before
	// them.
	steps := []func() error{
		func() error { return t.load(live.graphFile) },
		t.server, t.templates, t.engine, t.modes, t.reach, t.mutation, t.storage,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	t.liveCounts(live)
	return t.m, t.tr, nil
}

// load: the file rbqd loaded; and the Aux built once more by hand.
func (t *tracedRun) load(graphFile string) error {
	f, err := os.Open(graphFile)
	if err != nil {
		return err
	}
	defer f.Close()
	us, err := t.timed("graph.load", func() (err error) {
		t.db, err = rbq.Load(f)
		return err
	})
	if err != nil {
		return err
	}
	t.m["graph.load_ms"] = us / 1e3
	t.g0 = t.db.Graph()
	us, _ = t.timed("graph.buildaux", func() error {
		t.aux0 = graph.BuildAux(t.g0)
		return nil
	})
	t.m["graph.buildaux_ms"] = us / 1e3
	return nil
}

// server: the replayed requests through the real handler with a
// recorder, no socket. The access log is on, as in rbqd, but goes
// nowhere.
func (t *tracedRun) server() error {
	readers := t.e.clients
	if t.w.durable {
		readers = max(t.e.clients-1, 1)
	}
	ld := buildLoad(t.w, t.d, t.seed, readers, t.ts.replay)
	for _, qi := range ld.lists[0] {
		t.reqs = append(t.reqs, &ld.pool[qi])
	}
	n := float64(len(t.reqs))

	h := server.New(t.db, server.Config{AccessLog: io.Discard}).Handler()
	serve := func(h http.Handler, req *request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.route, bytes.NewReader(req.body)))
		return rec
	}
	for _, req := range t.reqs { // unmeasured: compiles what the plan cache will hold
		if rec := serve(h, req); rec.Code != http.StatusOK {
			return fmt.Errorf("traced replay %s: HTTP %d %.200s", req.route, rec.Code, rec.Body)
		}
	}
	// Allocations: what the harness itself allocates per call is taken
	// off.
	allocs := func(h http.Handler) uint64 {
		a0 := mallocs()
		for _, req := range t.reqs {
			serve(h, req)
		}
		return mallocs() - a0
	}
	harness := allocs(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	t.m["server.allocs_per_request"] = float64(allocs(h)-harness) / n

	// Each request goes through the real handler and through the
	// handler's measured parts called one by one — back to back, so that
	// a drift in the host's speed meets both alike, and in alternating
	// order, so that neither is always the one that finds the caches (the
	// CPU's, and on modes_cold the plan cache) warmed by the other. What
	// the handler does besides — request id, admission, tenant lookup,
	// deadline context, metrics, access log, header writes — is
	// server.self_us.
	var handlerUs []float64
	var decodeUs, parseUs, engineUs, encodeUs float64
	var sink bytes.Buffer
	handler := func(i int, req *request) {
		r := httptest.NewRequest(http.MethodPost, req.route, bytes.NewReader(req.body))
		rec := httptest.NewRecorder()
		us, _ := t.timedIn("server.handler", 0, i, func() error {
			h.ServeHTTP(rec, r)
			return nil
		})
		handlerUs = append(handlerUs, us)
	}
	parts := func(i int, req *request) error {
		root := t.tr.begin("server.parts", 0, i)
		defer t.tr.end(root)
		part := func(name string, sum *float64, f func() error) error {
			us, err := t.timedIn(name, root, i, f)
			*sum += us
			return err
		}
		var qr server.QueryRequest
		var br server.BatchRequest
		into := any(&qr)
		if req.batch != nil {
			into = &br
		}
		if err := part("server.decode", &decodeUs, func() error {
			return json.NewDecoder(bytes.NewReader(req.body)).Decode(into)
		}); err != nil {
			return err
		}
		var answer any
		if req.single != nil {
			var q *rbq.Pattern
			if err := part("pattern.parse", &parseUs, func() (err error) {
				q, err = rbq.ParsePattern(qr.Pattern)
				return err
			}); err != nil {
				return err
			}
			var res rbq.Result
			if err := part("rbq.query", &engineUs, func() (err error) {
				res, err = t.db.Query(t.ctx, q, toRequest(&qr))
				return err
			}); err != nil {
				return err
			}
			answer = &server.QueryResponse{
				Matches: wireMatches(res.Matches), Personalized: int64(res.Personalized),
				Complete: res.Complete, FragmentSize: res.FragmentSize, Budget: res.Budget,
				Visited: res.Visited, Candidates: res.Candidates, Evaluated: res.Evaluated,
				Governance: server.Governance{Tenant: server.DefaultTenant, RequestedAlpha: qr.Alpha, EffectiveAlpha: qr.Alpha},
				RequestID:  "0123456789abcdef",
			}
		} else {
			qs := make([]rbq.AnchoredQuery, len(br.Items))
			if err := part("pattern.parse", &parseUs, func() error {
				for j, it := range br.Items {
					q, err := rbq.ParsePattern(it.Pattern)
					if err != nil {
						return err
					}
					qs[j] = rbq.AnchoredQuery{Q: q, At: rbq.NodeID(it.Anchor)}
				}
				return nil
			}); err != nil {
				return err
			}
			var results []rbq.Result
			if err := part("rbq.query_batch", &engineUs, func() (err error) {
				results, err = t.db.QueryBatch(t.ctx, qs, rbq.Request{Alpha: br.Alpha}, 0)
				return err
			}); err != nil {
				return err
			}
			resp := &server.BatchResponse{
				Results:    make([]server.BatchResult, len(results)),
				Governance: server.Governance{Tenant: server.DefaultTenant, RequestedAlpha: br.Alpha, EffectiveAlpha: br.Alpha},
				RequestID:  "0123456789abcdef",
			}
			for j, res := range results {
				resp.Results[j] = server.BatchResult{
					Matches: wireMatches(res.Matches), Personalized: int64(res.Personalized),
					Complete: res.Complete, FragmentSize: res.FragmentSize, Budget: res.Budget, Visited: res.Visited,
				}
			}
			answer = resp
		}
		sink.Reset()
		return part("server.encode", &encodeUs, func() error { return encodeJSON(&sink, answer) })
	}
	for i, req := range t.reqs {
		if i%2 == 0 {
			handler(i, req)
		}
		if err := parts(i, req); err != nil {
			return err
		}
		if i%2 == 1 {
			handler(i, req)
		}
	}
	t.m["server.handler_us"] = mean(handlerUs)
	t.m["server.handler_p50_us"] = quantile(handlerUs, 0.50)
	t.m["server.decode_us"] = decodeUs / n
	t.m["server.parse_us"] = parseUs / n
	t.m["server.engine_us"] = engineUs / n
	t.m["server.encode_us"] = encodeUs / n
	t.m["server.self_us"] = t.m["server.handler_us"] - (decodeUs+parseUs+engineUs+encodeUs)/n
	return nil
}

// templates: pattern and plan, one call per template.
func (t *tracedRun) templates() error {
	var parseUs, keyUs, compileUs float64
	for _, p := range t.d.patterns {
		text := p.String()
		t0 := time.Now()
		q, err := rbq.ParsePattern(text)
		parseUs += since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		key := q.String()
		keyUs += since(t0)
		if key != text {
			return fmt.Errorf("pattern text does not round-trip")
		}
		t0 = time.Now()
		_, err = plan.New(t.aux0, q)
		compileUs += since(t0)
		if err != nil {
			return err
		}
	}
	n := float64(len(t.d.patterns))
	t.m["pattern.parse_us"] = parseUs / n
	t.m["pattern.key_us"] = keyUs / n
	t.m["plan.compile_us"] = compileUs / n
	return nil
}

// queryPass asks every probe once and returns the mean µs.
func (t *tracedRun) queryPass(traced bool) (us float64, results []rbq.Result, err error) {
	results = make([]rbq.Result, len(t.probes))
	for i, p := range t.probes {
		req := p.request(t.w.alpha)
		req.WantTrace = traced
		t0 := time.Now()
		results[i], err = t.db.Query(t.ctx, p.q, req)
		us += since(t0)
		if err != nil {
			return 0, nil, err
		}
	}
	return us / float64(len(t.probes)), results, nil
}

// engine: the probe set — bounded anchored queries at the workload's α,
// its own requests where those are bounded, else the items of its
// batches with every second one asked under sub semantics — untraced,
// then with rbq's own span tree on.
func (t *tracedRun) engine() error {
	add := func(text string, at int64, sub bool) error {
		q, err := rbq.ParsePattern(text)
		t.probes = append(t.probes, probe{q, rbq.NodeID(at), sub})
		return err
	}
	for _, req := range t.reqs {
		if req.single != nil && req.single.Mode == "" {
			if err := add(req.single.Pattern, *req.single.Anchor, req.single.Semantics == "sub"); err != nil {
				return err
			}
		} else if req.batch != nil {
			for _, it := range req.batch.Items {
				if err := add(it.Pattern, it.Anchor, len(t.probes)%2 == 1); err != nil {
					return err
				}
			}
		}
		if len(t.probes) >= t.ts.replay {
			break
		}
	}
	n := float64(len(t.probes))
	if _, _, err := t.queryPass(false); err != nil { // warm the plan cache
		return err
	}
	a0 := mallocs()
	queryUs, results, err := t.queryPass(false)
	if err != nil {
		return err
	}
	t.queryUs = queryUs
	t.m["rbq.allocs_per_query"] = float64(mallocs()-a0) / n
	t.m["rbq.query_us"] = queryUs

	var visited, budget float64
	var frag, fragBudget [2]float64 // by semantics: 0 sim, 1 sub
	var subN, subIncomplete float64
	for i, res := range results {
		visited += float64(res.Visited)
		budget += float64(res.Budget)
		k := 0
		if t.probes[i].sub {
			k = 1
			subN++
			if !res.Complete {
				subIncomplete++
			}
		}
		frag[k] += float64(res.FragmentSize)
		fragBudget[k] += float64(res.Budget)
	}
	t.m["reduce.visited_per_query"] = visited / n
	t.m["reduce.visited_per_budget"] = ratio(visited, budget)
	t.m["rbsim.fragment_per_budget"] = ratio(frag[0], fragBudget[0])
	t.m["rbsub.fragment_per_budget"] = ratio(frag[1], fragBudget[1])
	t.m["rbsub.incomplete_frac"] = ratio(subIncomplete, subN)

	// The engine-internal phases, and what asking for them costs.
	at := time.Since(t.tr.t0).Nanoseconds()
	tracedUs, results, err := t.queryPass(true)
	if err != nil {
		return err
	}
	t.m["rbq.trace_overhead_ratio"] = ratio(tracedUs, queryUs)
	var planUs, selfUs, reduceUs, rounds float64
	var extractUs, matchUs, semN [2]float64
	for i, res := range results {
		root := res.Trace.Root
		t.tr.adopt(root, 0, i, at)
		at += root.Dur.Nanoseconds()
		ps, es := root.Find(obs.PhasePlan), root.Find(obs.PhaseExec)
		planUs += spanUs(ps)
		selfUs += spanUs(root) - spanUs(ps) - spanUs(es)
		reduceUs += spanUs(root.Find(obs.PhaseReduce))
		rounds += float64(countSpans(root, obs.PhaseRound))
		k := 0
		if t.probes[i].sub {
			k = 1
		}
		semN[k]++
		extractUs[k] += spanUs(root.Find(obs.PhaseExtract))
		matchUs[k] += spanUs(root.Find(obs.PhaseMatch))
	}
	t.m["plan.probe_us"] = planUs / n
	t.m["rbq.self_us"] = selfUs / n
	t.m["reduce.us"] = reduceUs / n
	t.m["reduce.ns_per_visit"] = ratio(reduceUs*1e3, visited)
	t.m["reduce.rounds_per_query"] = rounds / n
	t.m["rbsim.extract_us"] = ratio(extractUs[0], semN[0])
	t.m["rbsim.match_us"] = ratio(matchUs[0], semN[0])
	t.m["rbsub.extract_us"] = ratio(extractUs[1], semN[1])
	t.m["rbsub.match_us"] = ratio(matchUs[1], semN[1])
	return nil
}

// modes: the exact matchers and the unanchored waves on pairs that
// match, and one batch at one worker against C.
func (t *tracedRun) modes() error {
	query := func(name string, q *rbq.Pattern, req rbq.Request) (us float64, res rbq.Result, err error) {
		us, err = t.timed(name, func() (err error) {
			res, err = t.db.Query(t.ctx, q, req)
			return err
		})
		return us, res, err
	}
	var exactSim, exactSub float64
	nx := min(t.ts.exact, len(t.d.patterns))
	for i := 0; i < nx; i++ {
		q, at := t.d.patterns[i], rbq.Pin(t.d.pins[i][0])
		us, _, err := query("simulation.exact", q, rbq.Request{Mode: rbq.Exact, Anchor: at})
		if err != nil {
			return err
		}
		exactSim += us
		us, _, err = query("subiso.exact", q, rbq.Request{Semantics: rbq.Subgraph, Mode: rbq.Exact, MaxSteps: exactSubMaxSteps, Anchor: at})
		if err != nil {
			return err
		}
		exactSub += us
	}
	t.m["simulation.exact_us"] = exactSim / float64(nx)
	t.m["subiso.exact_us"] = exactSub / float64(nx)

	var unUs, evaluated, candidates float64
	nu := min(t.ts.unanchored, len(t.d.patterns))
	for i := 0; i < nu; i++ {
		us, res, err := query("rbany.unanchored", t.d.patterns[i], rbq.Request{Mode: rbq.Unanchored, Alpha: coldUnanchoredAlpha})
		if err != nil {
			return err
		}
		unUs += us
		evaluated += float64(res.Evaluated)
		candidates += float64(res.Candidates)
	}
	t.m["rbany.unanchored_us"] = unUs / float64(nu)
	t.m["rbany.evaluated_per_candidate"] = ratio(evaluated, candidates)

	items := make([]rbq.AnchoredQuery, coldBatchItems)
	for i := range items {
		p := t.probes[i%len(t.probes)]
		items[i] = rbq.AnchoredQuery{Q: p.q, At: p.at}
	}
	wall := map[int][]float64{}
	for rep := 0; rep < t.ts.batchReps; rep++ {
		for _, workers := range []int{1, t.e.clients} {
			us, err := t.timed(fmt.Sprintf("rbq.query_batch.w%d", workers), func() error {
				_, err := t.db.QueryBatch(t.ctx, items, rbq.Request{Alpha: t.w.alpha}, workers)
				return err
			})
			if err != nil {
				return err
			}
			wall[workers] = append(wall[workers], us)
		}
	}
	t.m["rbq.batch_us_per_item"] = median(wall[t.e.clients]) / float64(len(items))
	t.m["exec.batch_speedup"] = ratio(median(wall[1]), median(wall[t.e.clients]))
	return nil
}

// reach: landmark and rbreach. rbqd has no reach route yet; the numbers
// are recorded so that work starts from one.
func (t *tracedRun) reach() error {
	var oracle *rbq.ReachOracle
	us, _ := t.timed("landmark.build", func() error {
		oracle = t.db.BuildReachOracle(0.005)
		return nil
	})
	t.m["landmark.build_ms"] = us / 1e3
	rng := rand.New(rand.NewSource(datasetSeed))
	n := t.g0.NumNodes()
	t0 := time.Now()
	for i := 0; i < t.ts.reachPairs; i++ {
		oracle.Reach(rbq.NodeID(rng.Intn(n)), rbq.NodeID(rng.Intn(n)))
	}
	t.m["rbreach.query_us"] = since(t0) / float64(t.ts.reachPairs)
	return nil
}

// mutation: delta and compaction on the in-memory DB. The threshold is
// raised out of reach so that Compact is called here and not inside an
// Apply.
func (t *tracedRun) mutation() error {
	t.db.SetCompactThreshold(1 << 30)
	gen := newOpGen(t.g0, t.seed)
	var applyUs, compactMs []float64
	spliced := 0.0
	for c := 0; c < t.ts.cycles; c++ {
		for b := 0; b < batchesPerCycle; b++ {
			ops, err := gen.next(batchDels, batchAdds)
			if err != nil {
				return err
			}
			us, err := t.timed("delta.apply", func() error { return t.db.Apply(ops) })
			if err != nil {
				return err
			}
			applyUs = append(applyUs, us)
			if c == 0 && b+1 == batchesPerCycle/2 {
				// A 1024-op live delta: the same probes through the overlay.
				overlayUs, _, err := t.queryPass(false)
				if err != nil {
					return err
				}
				t.m["delta.overlay_query_ratio"] = ratio(overlayUs, t.queryUs)
			}
		}
		us, err := t.timed("graph.compact", t.db.Compact)
		if err != nil {
			return err
		}
		compactMs = append(compactMs, us/1e3)
		if t.db.MutationStats().Mode == rbq.CompactModeIncremental {
			spliced++
		}
	}
	t.m["delta.apply_us"] = mean(applyUs)
	t.m["graph.compact_ms"] = median(compactMs)
	t.m["graph.compact_splice_frac"] = spliced / float64(t.ts.cycles)
	return nil
}

// storage: the WAL and the image writer under a counting filesystem,
// and recovery of a directory with a base image and a WAL tail, as a
// crash leaves it.
func (t *tracedRun) storage() error {
	gen := newOpGen(t.g0, t.seed)
	batch, err := gen.next(batchDels, batchAdds)
	if err != nil {
		return err
	}
	appendAll := func(st *store.Store) (float64, error) {
		sum := 0.0
		for i := 0; i < t.ts.appends; i++ {
			us, err := t.timed("store.append", func() error { return st.Append(uint64(i+1), batch) })
			if err != nil {
				return 0, err
			}
			sum += us
		}
		return sum / float64(t.ts.appends), nil
	}

	cfs := &countFS{FS: store.OSFS}
	dir := filepath.Join(t.tmp, "store-sync")
	st, err := store.Open(dir, store.Options{Sync: store.SyncBatch, FS: cfs})
	if err != nil {
		return err
	}
	us, err := t.timed("store.write_base", func() error { return st.WriteBase(t.g0, t.aux0, 0) })
	if err != nil {
		return err
	}
	t.m["store.image_write_ms"] = us / 1e3
	t.m["store.image_bytes_per_item"] = ratio(float64(fileSize(filepath.Join(dir, "base.img"))), float64(t.g0.Size()))
	bytes0, syncs0 := cfs.bytes, cfs.syncs
	if t.m["store.append_us"], err = appendAll(st); err != nil {
		return err
	}
	t.m["store.fsyncs_per_apply"] = float64(cfs.syncs-syncs0) / float64(t.ts.appends)
	t.m["store.write_bytes_per_op"] = float64(cfs.bytes-bytes0) / float64(t.ts.appends*batchOps)
	if err := st.Close(); err != nil {
		return err
	}
	if st, err = store.Open(filepath.Join(t.tmp, "store-nosync"), store.Options{Sync: store.SyncNone}); err != nil {
		return err
	}
	if t.m["store.append_nosync_us"], err = appendAll(st); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}

	const tail = batchesPerCycle / 2
	dir = filepath.Join(t.tmp, "recover")
	pdb, err := rbq.OpenDB(dir, rbq.OpenOptions{Bootstrap: t.g0})
	if err != nil {
		return err
	}
	for i := 0; i < tail; i++ {
		if err := pdb.Apply(batch); err != nil {
			return err
		}
		if batch, err = gen.next(batchDels, batchAdds); err != nil {
			return err
		}
	}
	if err := pdb.Close(); err != nil {
		return err
	}
	us, err = t.timed("store.recover", func() (err error) {
		pdb, err = rbq.OpenDB(dir, rbq.OpenOptions{})
		return err
	})
	if err != nil {
		return err
	}
	t.m["store.recover_ms"] = us / 1e3
	if got := pdb.RecoveryStats().ReplayedBatches; got != tail {
		return fmt.Errorf("recovery replayed %d batches, want %d", got, tail)
	}
	return pdb.Close()
}

// liveCounts: what only the live rbqd knows.
func (t *tracedRun) liveCounts(live *liveResult) {
	adm0, adm1 := live.before.Admission, live.after.Admission
	admitted := float64(adm1.Admitted - adm0.Admitted)
	refused := float64(adm1.Rejected + adm1.WaitTimeouts - adm0.Rejected - adm0.WaitTimeouts)
	pc0, pc1 := live.before.PlanCache, live.after.PlanCache
	hits, misses := float64(pc1.Hits-pc0.Hits), float64(pc1.Misses-pc0.Misses)
	t.m["server.transport_us"] = live.metrics["query_p50_us"] - t.m["server.handler_p50_us"]
	t.m["server.log_bytes_per_op"] = ratio(float64(live.logBytes), float64(live.ops()))
	t.m["server.queued_frac"] = ratio(float64(adm1.Queued-adm0.Queued), admitted)
	t.m["server.rejected_frac"] = ratio(refused, admitted+refused)
	t.m["server.clamped_frac"] = ratio(float64(live.clamped), float64(live.queries))
	t.m["rbq.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	t.m["rbq.plan_invalidations_per_apply"] = ratio(float64(pc1.Invalidations-pc0.Invalidations), float64(live.applies))
	t.m["graph.compactions"] = float64(live.after.Mutation.Compactions - live.before.Mutation.Compactions)
	t.m["apply_p50_us"] = live.applyP50us
	t.m["apply_p99_us"] = live.applyP99us
	t.m["loadgen.writer_late_ms_p99"] = live.lateP99ms
	t.m["loadgen.cpu_frac"] = live.generatorFrac
}
