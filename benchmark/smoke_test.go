package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"rbq/internal/server"
)

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func declare(defs []metricDef, bounded bool) []declaredMetric {
	var out []declaredMetric
	for _, d := range defs {
		dm := declaredMetric{Name: d.name, Unit: d.unit, Better: "lower"}
		if d.higher {
			dm.Better = "higher"
		}
		if bounded {
			dm.Bound = d.bound
		}
		out = append(out, dm)
	}
	return out
}

// TestSmoke runs every workload end to end at toy size — 5k-node
// graphs, one 200-request segment, the real rbqd built into a temp dir
// — and holds the result to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if want := declare(endToEnd, true); !reflect.DeepEqual(decl.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end = %+v\nmetrics.go declares %+v", decl.EndToEnd, want)
	}
	if want := declare(perLayer, false); !reflect.DeepEqual(decl.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer = %+v\nmetrics.go declares %+v", decl.PerLayer, want)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	e := &env{outDir: t.TempDir(), clients: 2, log: io.Discard}
	if e.bin, _, err = buildRbqd(root, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q (or their reasons differ)", i, decl.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			w.nodes, w.checkPairs, w.traceN = 5_000, 8, 200
			if w.cold {
				w.traceN = 40
			}
			sz := sizing{minSegments: 1, listLen: 200, setups: 1, setupWarm: 16, warm: 50, warmCycles: 1}
			tmp := t.TempDir()
			d, err := buildDataset(w)
			if err != nil {
				t.Fatal(err)
			}
			live, err := runLive(e, w, d, 1, sz, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if live.fatal != "" || live.failed != 0 {
				t.Fatalf("fatal %q, %d of %d operations failed: %v", live.fatal, live.failed, live.attempted, live.failures)
			}
			layers, tr, err := runTraced(e, w, d, 1, live, w.tracedSizing(), tmp)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.spans) == 0 {
				t.Error("the traced run recorded no spans")
			}
			check := func(kind string, got map[string]float64, defs []metricDef) {
				for _, def := range defs {
					if _, ok := got[def.name]; !ok {
						t.Errorf("%s metric %s declared but not emitted", kind, def.name)
					}
					if !name.MatchString(def.name) {
						t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, def.name)
					}
				}
				if len(got) != len(defs) {
					t.Errorf("%d %s metrics emitted, %d declared: %v", len(got), kind, len(defs), got)
				}
			}
			check("end-to-end", live.metrics, endToEnd)
			check("per-layer", layers, perLayer)
			if !name.MatchString(w.name) {
				t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w.name)
			}
			// The handler cannot be faster than the calls it makes. Request
			// by request, and at the median: a toy run's means are at the
			// mercy of one GC pause.
			handler, parts := map[int]float64{}, map[int]float64{}
			for _, sp := range tr.spans {
				us := float64(sp.End-sp.Start) / 1e3
				switch {
				case sp.Name == "server.handler":
					handler[sp.Req] = us
				case sp.Parent != 0 && !sp.Laid:
					parts[sp.Req] += us // a child of server.parts
				}
			}
			var self, all []float64
			for req, us := range handler {
				self = append(self, us-parts[req])
				all = append(all, us)
			}
			if len(self) != w.traceN {
				t.Errorf("%d replayed requests have a handler span, want %d", len(self), w.traceN)
			}
			if median(self) < -0.05*median(all) {
				t.Errorf("the handler's median self time is %.2f us of %.2f: less than its measured parts", median(self), median(all))
			}
		})
	}
}

// Every answer check passes a good answer and fires on a corrupted one.
func TestChecksFire(t *testing.T) {
	at := int64(7)
	req := &server.QueryRequest{Pattern: "node 0 A*!\n", Alpha: 1e-4, Anchor: &at}
	good := server.QueryResponse{
		Matches: []int64{3, 9}, FragmentSize: 30, Budget: 37, Epoch: 4,
		Governance: server.Governance{RequestedAlpha: 1e-4, EffectiveAlpha: 1e-4},
	}
	if why := checkQueryAnswer(req, &good); why != "" {
		t.Fatalf("good answer rejected: %s", why)
	}
	corrupt := map[string]func(r *server.QueryResponse){
		"fragment over budget": func(r *server.QueryResponse) { r.FragmentSize = r.Budget + 1 },
		"effective alpha":      func(r *server.QueryResponse) { r.Governance.EffectiveAlpha = 5e-5 },
		"requested alpha":      func(r *server.QueryResponse) { r.Governance.RequestedAlpha = 2e-4 },
		"clamped":              func(r *server.QueryResponse) { r.Governance.Clamped = true; r.Governance.ClampReason = "saturation" },
	}
	for what, mutate := range corrupt {
		bad := good
		mutate(&bad)
		if checkQueryAnswer(req, &bad) == "" {
			t.Errorf("corrupted answer (%s) passed", what)
		}
	}

	breq := &server.BatchRequest{Items: make([]server.BatchItem, 2), Alpha: 1e-4}
	goodBatch := func() *server.BatchResponse {
		return &server.BatchResponse{
			Results:    []server.BatchResult{{FragmentSize: 1, Budget: 37}, {FragmentSize: 2, Budget: 37}},
			Governance: good.Governance,
		}
	}
	if why := checkBatchAnswer(breq, goodBatch()); why != "" {
		t.Fatalf("good batch rejected: %s", why)
	}
	corruptBatch := map[string]func(r *server.BatchResponse){
		"missing item":         func(r *server.BatchResponse) { r.Results = r.Results[:1] },
		"item error":           func(r *server.BatchResponse) { r.Results[1].Error = "bad pattern" },
		"fragment over budget": func(r *server.BatchResponse) { r.Results[0].FragmentSize = 38 },
		"clamped":              func(r *server.BatchResponse) { r.Governance.Clamped = true },
	}
	for what, mutate := range corruptBatch {
		bad := goodBatch()
		mutate(bad)
		if checkBatchAnswer(breq, bad) == "" {
			t.Errorf("corrupted batch (%s) passed", what)
		}
	}

	if why := checkSubset([]int64{3, 9}, []int64{1, 3, 9, 12}); why != "" {
		t.Errorf("subset rejected: %s", why)
	}
	if checkSubset([]int64{3, 10}, []int64{1, 3, 9, 12}) == "" {
		t.Error("bounded match outside the exact answer passed")
	}
	if checkSubset([]int64{13}, []int64{1, 3, 9, 12}) == "" {
		t.Error("bounded match beyond the exact answer passed")
	}
	if checkEpoch(4, 4) != "" || checkEpoch(4, 5) != "" || checkEpoch(4, 3) == "" {
		t.Error("epoch check: want 4→4 and 4→5 to pass, 4→3 to fire")
	}
	if checkDigests([]uint64{7, 7, 7}) != "" || checkDigests([]uint64{7, 7, 8}) == "" {
		t.Error("digest check: want equal digests to pass, a differing one to fire")
	}
	if checkRecovered(100, 100) != "" || checkRecovered(100, 99) == "" {
		t.Error("recovery check: want seq 100 of 100 to pass, 99 of 100 to fire")
	}
}
