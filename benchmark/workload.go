package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"rbq"
	"rbq/internal/gen"
	"rbq/internal/server"
)

// datasetSeed fixes each workload's data set — graph, templates, pins
// and accuracy check set — the way the paper's Youtube graph is one
// fixed graph. The run's -seed drives what varies between runs of a
// service: the order requests arrive in, how they are dealt to the
// clients, and the write stream. A per-seed graph would put the draw of
// a dozen hub-rooted queries (which set p99 and throughput on
// engine_heavy) into every comparison between two commits; the fixed
// data set keeps run-to-run spread to what the system itself causes.
const datasetSeed = 20140622

// workload is one traffic mix. Sizes live here, next to the reason.
type workload struct {
	name, why string

	// nodes sizes YoutubeLike; templates × pins is the distinct query
	// set; big makes every second template (6,12) instead of (4,8).
	nodes, templates, pins int
	big                    bool
	// alpha is the resource ratio of the bounded requests.
	alpha float64
	// cold selects the modes_cold rotation instead of bounded anchored
	// queries; durable runs rbqd on a -db directory with a writer.
	cold, durable bool
	// segments passes over the request list fill -seconds, given that
	// one closed-loop reader completes readerRate requests per second —
	// today's speed on the 2-CPU reference host (C = 2). The two only
	// size the list; a run measures whole passes until its time is up,
	// so a faster rbqd runs more passes, never a shorter measurement.
	segments   int
	readerRate float64
	// checkPairs sizes the accuracy check set: bounded against exact.
	checkPairs int
	// setupWarm requests are part of a set-up, and warm requests per
	// reader go unmeasured before the first segment. The bounded
	// workloads' lists open with one whole permutation of their 1024
	// distinct queries, so 1024 compile every template and touch every
	// pin once; modes_cold has nothing to keep warm — 128 requests put
	// 2144 templates through the 256-entry cache. (A full pass, as long
	// as a segment, would be a fifth of the run's time again.)
	setupWarm, warm int
	// traceN is how many requests the traced run replays in-process;
	// fewer where one request costs milliseconds.
	traceN int
}

var workloads = []workload{
	{
		name: "serve_light",
		why:  "64 cached (4,8) templates x 16 pins on a 100k-node graph at alpha=1e-4: engine work is microseconds, so decode, parse, plan-key, admission, encode, access log and transport do the work",
		// 64 templates fit the 256-entry plan cache: every lookup hits.
		nodes: 100_000, templates: 64, pins: 16, alpha: 1e-4,
		segments: 5, readerRate: 5400, checkPairs: 128, setupWarm: 256, warm: 1024, traceN: 2000,
	},
	{
		name: "engine_heavy",
		why:  "128 templates (half (4,8), half (6,12)) x 8 pins on a 1M-node graph at alpha=3e-4: reduce, extract and match dominate rbqd CPU, so engine changes show and serving-tier changes must not",
		// 1M nodes / 3.8M items is the paper's Youtube scale (1.6M/4.5M);
		// budget = 3e-4 x |G| is about 1.1k items. The exact side of the
		// check set costs ~70 ms a pair here, hence 32 pairs, not 128.
		nodes: 1_000_000, templates: 128, pins: 8, big: true, alpha: 3e-4,
		segments: 5, readerRate: 630, checkPairs: 32, setupWarm: 256, warm: 1024, traceN: 400,
	},
	{
		name:  "mixed_rw",
		why:   "serve_light's reads beside a 50 batch/s durable write stream (fsync per batch, compaction every 32 batches): overlay reads, per-epoch plan invalidation, snapshot publishes, WAL and image writes",
		nodes: 100_000, templates: 64, pins: 16, alpha: 1e-4, durable: true,
		segments: 7, readerRate: 2950, checkPairs: 128, setupWarm: 256, warm: 1024, traceN: 2000,
	},
	{
		name:  "modes_cold",
		why:   "1024 templates (4x the plan cache, every lookup misses) on a 300k-node graph, rotating exact sim, exact sub, unanchored sim and 64-item batches: the matchers, rbany waves, exec pool and cold compile",
		nodes: 300_000, templates: 1024, pins: 2, alpha: 1e-4, cold: true,
		segments: 3, readerRate: 154, checkPairs: 128, setupWarm: 32, warm: 128, traceN: 200,
	},
}

// The modes_cold rotation's fixed parameters.
const (
	coldUnanchoredAlpha = 1e-3
	coldBatchItems      = 64
	exactSubMaxSteps    = 1_000_000
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpus is a workload's fixed data: the graph, the templates and each
// template's pins.
type corpus struct {
	g        *rbq.Graph
	patterns []*rbq.Pattern
	pins     [][]rbq.NodeID
}

// plausible reports whether v can host the pattern's personalized node:
// same label, and for every label the pattern demands next to u_p at
// least one such neighbour in the same direction. An application sends
// a personalised query for users it can plausibly hold for; a random
// same-label pin is rejected by the engine's guard in under a
// microsecond and would measure nothing.
func plausible(g *rbq.Graph, q *rbq.Pattern, v rbq.NodeID) bool {
	up := q.Personalized()
	if g.Label(v) != q.Label(up) {
		return false
	}
	has := func(neigh []rbq.NodeID, label string) bool {
		for _, x := range neigh {
			if g.Label(x) == label {
				return true
			}
		}
		return false
	}
	for _, w := range q.Out(up) {
		if !has(g.Out(v), q.Label(w)) {
			return false
		}
	}
	for _, w := range q.In(up) {
		if !has(g.In(v), q.Label(w)) {
			return false
		}
	}
	return true
}

func buildDataset(w workload) (*corpus, error) {
	g := rbq.YoutubeLike(w.nodes, datasetSeed)
	rng := rand.New(rand.NewSource(datasetSeed))
	d := &corpus{g: g}
	for tries := 0; len(d.patterns) < w.templates; tries++ {
		if tries > 200*w.templates {
			return nil, fmt.Errorf("%s: could not extract %d templates", w.name, w.templates)
		}
		root := rbq.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(root) < 2 {
			continue
		}
		cfg := gen.PatternConfig{Nodes: 4, Edges: 8, Seed: rng.Int63()}
		if w.big && len(d.patterns)%2 == 1 {
			cfg.Nodes, cfg.Edges = 6, 12
		}
		q := gen.PatternAt(g, root, cfg)
		if q == nil {
			continue
		}
		// The template copies real structure around root, so root is a
		// pin that matches; the others are plausible same-label nodes.
		pins := []rbq.NodeID{root}
		same := g.NodesWithLabel(g.LabelIDOf(q.Label(q.Personalized())))
		for misses := 0; len(pins) < w.pins && misses < 5000; {
			v := same[rng.Intn(len(same))]
			if v == root || !plausible(g, q, v) {
				misses++
				continue
			}
			pins = append(pins, v)
		}
		if len(pins) < w.pins {
			continue // too rare a neighbourhood; draw another template
		}
		d.patterns = append(d.patterns, q)
		d.pins = append(d.pins, pins)
	}
	return d, nil
}

// request is one prepared HTTP request. Exactly one of single and batch
// is set; body is its JSON.
type request struct {
	route  string
	body   []byte
	single *server.QueryRequest
	batch  *server.BatchRequest
}

func singleRequest(qr server.QueryRequest) request {
	body, err := json.Marshal(qr)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return request{route: server.RouteQuery, body: body, single: &qr}
}

func batchRequest(br server.BatchRequest) request {
	body, err := json.Marshal(br)
	if err != nil {
		panic(err)
	}
	return request{route: server.RouteBatch, body: body, batch: &br}
}

func semantics(sub bool) string {
	if sub {
		return "sub"
	}
	return "sim"
}

func pin(v rbq.NodeID) *int64 {
	a := int64(v)
	return &a
}

// boundedRequest is the (template t, pin p) query of the bounded
// workloads; odd pins ask under subgraph semantics.
func (d *corpus) boundedRequest(w workload, t, p int) request {
	return singleRequest(server.QueryRequest{
		Pattern:   d.patterns[t].String(),
		Semantics: semantics(p%2 == 1),
		Alpha:     w.alpha,
		Anchor:    pin(d.pins[t][p]),
	})
}

// checkPair is one accuracy check: the same (template, pin) asked
// bounded and exact.
type checkPair struct {
	bounded, exact request
	sub            bool
}

// load is what one run sends: the distinct requests, one index list per
// reader, and the check set.
type load struct {
	pool  []request
	lists [][]int32
	check []checkPair
}

// buildLoad makes the request lists of a run. The data set is fixed;
// seed decides the order and the deal.
func buildLoad(w workload, d *corpus, seed int64, readers, listLen int) *load {
	l := &load{}
	if w.cold {
		l.buildCold(w, d, seed, readers, listLen)
	} else {
		for t := range d.patterns {
			for p := range d.pins[t] {
				l.pool = append(l.pool, d.boundedRequest(w, t, p))
			}
		}
		for r := 0; r < readers; r++ {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
			list := make([]int32, 0, listLen)
			for len(list) < listLen {
				// Whole permutations: every distinct query is asked
				// equally often, only the order differs.
				for _, i := range rng.Perm(len(l.pool)) {
					if len(list) < listLen {
						list = append(list, int32(i))
					}
				}
			}
			l.lists = append(l.lists, list)
		}
	}
	// The check set walks the templates round-robin, pin 0 (which
	// matches by construction) first.
	for i := 0; i < w.checkPairs; i++ {
		t := i % len(d.patterns)
		p := (i / len(d.patterns)) % len(d.pins[t])
		sub := i%2 == 1
		exact := server.QueryRequest{
			Pattern: d.patterns[t].String(), Semantics: semantics(sub),
			Mode: "exact", Anchor: pin(d.pins[t][p]),
		}
		if sub {
			exact.MaxSteps = exactSubMaxSteps
		}
		l.check = append(l.check, checkPair{
			bounded: singleRequest(server.QueryRequest{
				Pattern: exact.Pattern, Semantics: exact.Semantics,
				Alpha: w.alpha, Anchor: exact.Anchor,
			}),
			exact: singleRequest(exact),
			sub:   sub,
		})
	}
	return l
}

// buildCold deals the templates to the readers (template t belongs to
// reader t mod readers) and lets each reader walk its own share in a
// seeded order, one template per single request and coldBatchItems per
// batch. A template returns only after its reader has used all its
// others and the other readers as many of theirs, by which time most of
// the 1024 have gone through the 256-entry plan cache: every lookup
// misses.
func (l *load) buildCold(w workload, d *corpus, seed int64, readers, listLen int) {
	for r := 0; r < readers; r++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
		var own []int
		for t := r; t < len(d.patterns); t += readers {
			own = append(own, t)
		}
		rng.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
		used := 0
		next := func() (string, *int64) {
			t := own[used%len(own)]
			p := (used / len(own)) % len(d.pins[t])
			used++
			return d.patterns[t].String(), pin(d.pins[t][p])
		}
		list := make([]int32, 0, listLen)
		for k := 0; k < listLen; k++ {
			var req request
			switch k % 4 {
			case 0:
				text, at := next()
				req = singleRequest(server.QueryRequest{Pattern: text, Mode: "exact", Anchor: at})
			case 1:
				text, at := next()
				req = singleRequest(server.QueryRequest{
					Pattern: text, Semantics: "sub", Mode: "exact",
					MaxSteps: exactSubMaxSteps, Anchor: at,
				})
			case 2:
				text, _ := next()
				req = singleRequest(server.QueryRequest{Pattern: text, Mode: "unanchored", Alpha: coldUnanchoredAlpha})
			default:
				br := server.BatchRequest{Alpha: w.alpha}
				for i := 0; i < coldBatchItems; i++ {
					text, at := next()
					br.Items = append(br.Items, server.BatchItem{Pattern: text, Anchor: *at})
				}
				req = batchRequest(br)
			}
			list = append(list, int32(len(l.pool)))
			l.pool = append(l.pool, req)
		}
		l.lists = append(l.lists, list)
	}
}
