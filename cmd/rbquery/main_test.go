package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rbq"
	"rbq/internal/gen"
	"rbq/internal/workload"
)

// writeFixtures creates a small graph, a matching pattern, and a workload
// file in a temp dir, returning their paths.
func writeFixtures(t *testing.T) (graphPath, patternPath, workloadPath string) {
	t.Helper()
	dir := t.TempDir()

	gb := rbq.NewGraphBuilder(8, 6)
	m := gb.AddNode("Michael")
	cc := gb.AddNode("CC")
	hg := gb.AddNode("HG")
	cl := gb.AddNode("CL")
	gb.AddEdge(m, cc)
	gb.AddEdge(m, hg)
	gb.AddEdge(cc, cl)
	gb.AddEdge(hg, cl)
	// Padding so that a 0.9 budget still covers the whole motif.
	gb.AddNode("X")
	gb.AddNode("X")
	gb.AddNode("X")
	db := rbq.NewDB(gb.Build())

	graphPath = filepath.Join(dir, "g.graph")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	patternPath = filepath.Join(dir, "q.pat")
	pat := "node 0 Michael*\nnode 1 CC\nnode 2 HG\nnode 3 CL!\nedge 0 1\nedge 0 2\nedge 1 3\nedge 2 3\n"
	if err := os.WriteFile(patternPath, []byte(pat), 0o644); err != nil {
		t.Fatal(err)
	}

	workloadPath = filepath.Join(dir, "w.txt")
	wl := &workload.Workload{}
	wf, err := os.Create(workloadPath)
	if err != nil {
		t.Fatal(err)
	}
	wl.Reach = append(wl.Reach,
		gen.ReachQuery{From: 0, To: 3, Truth: true},
		gen.ReachQuery{From: 3, To: 0, Truth: false})
	if err := workload.Write(wf, wl); err != nil {
		t.Fatal(err)
	}
	wf.Close()
	return graphPath, patternPath, workloadPath
}

func TestRunSimulationMode(t *testing.T) {
	g, p, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "0.9", "-exact"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "1 match(es)") || !strings.Contains(s, "F=1.000") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

func TestRunSubgraphMode(t *testing.T) {
	g, p, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-pattern", p, "-mode", "sub", "-alpha", "0.9"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "match(es)") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunReachMode(t *testing.T) {
	g, _, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-mode", "reach", "-alpha", "0.9", "-from", "0", "-to", "3", "-exact"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "reachable(0, 3)") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunWorkloadMode(t *testing.T) {
	g, _, w := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-mode", "workload", "-workload", w, "-alpha", "0.9"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "reachability: 2 queries") || !strings.Contains(s, "false positives 0") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

// TestRunWorkloadDedupsTemplates: a workload repeating one template at
// several pins reports one distinct template in -stats output.
func TestRunWorkloadDedupsTemplates(t *testing.T) {
	dir := t.TempDir()
	gb := rbq.NewGraphBuilder(8, 8)
	m := gb.AddNode("M")
	for i := 0; i < 3; i++ {
		cc := gb.AddNode("CC")
		gb.AddEdge(m, cc)
		gb.AddEdge(cc, gb.AddNode("CL"))
	}
	db := rbq.NewDB(gb.Build())
	graphPath := filepath.Join(dir, "g.graph")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// One template (CC* -> CL!) pinned at the three CC nodes.
	p, err := rbq.ParsePattern("node 0 CC*\nnode 1 CL!\nedge 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	wl := &workload.Workload{}
	for _, vp := range []rbq.NodeID{1, 3, 5} {
		wl.Patterns = append(wl.Patterns, workload.PatternQuery{P: p, VP: vp})
	}
	workloadPath := filepath.Join(dir, "w.txt")
	wf, err := os.Create(workloadPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Write(wf, wl); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	var out, errb bytes.Buffer
	code := run([]string{"-graph", graphPath, "-mode", "workload", "-workload", workloadPath,
		"-alpha", "0.9", "-stats"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "patterns: 3 queries") {
		t.Fatalf("unexpected output:\n%s", s)
	}
	if !strings.Contains(s, "1 distinct template(s)") || !strings.Contains(s, "prepare ") {
		t.Fatalf("-stats output missing prepare/execute split:\n%s", s)
	}
}

// TestRunWorkersFlag: -workers sets the batch-shard width of workload
// mode and leaves pattern mode untouched, so a pattern run's output must
// be identical to a -workers-less run.
func TestRunWorkersFlag(t *testing.T) {
	g, p, w := writeFixtures(t)
	var serial, parallel, errb bytes.Buffer
	if code := run([]string{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "0.9", "-exact"}, &serial, &errb); code != 0 {
		t.Fatalf("serial exit %d, stderr: %s", code, errb.String())
	}
	if code := run([]string{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "0.9", "-exact", "-workers", "4"}, &parallel, &errb); code != 0 {
		t.Fatalf("-workers exit %d, stderr: %s", code, errb.String())
	}
	stripTimes := func(s string) string {
		// Drop the per-run timings; everything else must match exactly.
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, " in ") {
				line = line[:strings.Index(line, " in ")]
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	if stripTimes(parallel.String()) != stripTimes(serial.String()) {
		t.Fatalf("-workers changed the answer:\nserial:\n%s\nparallel:\n%s", serial.String(), parallel.String())
	}
	var out bytes.Buffer
	errb.Reset()
	if code := run([]string{"-graph", g, "-mode", "workload", "-workload", w, "-alpha", "0.9", "-workers", "2"}, &out, &errb); code != 0 {
		t.Fatalf("workload -workers exit %d, stderr: %s", code, errb.String())
	}
}

// TestRunPatternStats: -stats in pattern mode reports the compile/execute
// timing split and the plan-cache hit/miss counters; the phase tree it
// reads them from is printed by -explain only.
func TestRunPatternStats(t *testing.T) {
	g, p, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "0.9", "-stats"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "stats: prepare ") {
		t.Fatalf("missing -stats line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "plan cache 0 hit(s) / 1 miss(es)") {
		t.Fatalf("missing plan-cache counters:\n%s", out.String())
	}
	if strings.Contains(out.String(), "--- phases ---") {
		t.Fatalf("-stats without -explain printed the phase tree:\n%s", out.String())
	}
}

// TestRunTimeoutCancels: an unmeetable -timeout aborts the query through
// context cancellation with a non-zero exit.
func TestRunTimeoutCancels(t *testing.T) {
	g, p, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "0.9", "-timeout", "1ns"}, &out, &errb)
	if code == 0 {
		t.Fatalf("expected non-zero exit, output:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "-timeout exceeded") {
		t.Fatalf("missing timeout diagnostic:\n%s", errb.String())
	}
	// A generous timeout succeeds.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "0.9", "-timeout", "1m"}, &out, &errb); code != 0 {
		t.Fatalf("generous timeout failed: exit %d, stderr: %s", code, errb.String())
	}
}

func TestRunErrors(t *testing.T) {
	g, p, _ := writeFixtures(t)
	cases := [][]string{
		{},                              // missing -graph
		{"-graph", "/no/such/file"},     // unreadable graph
		{"-graph", g, "-mode", "bogus"}, /* unknown mode */
		{"-graph", g, "-mode", "sim"},   // missing pattern
		{"-graph", g, "-mode", "reach"}, // missing endpoints
		{"-graph", g, "-mode", "reach", "-from", "0", "-to", "999"}, // out of range
		{"-graph", g, "-mode", "workload"},                          // missing workload
		{"-graph", g, "-pattern", "/no/such.pat", "-mode", "sim"},
		{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "x"}, // bad flag
	}
	for i, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("case %d (%v): expected non-zero exit", i, args)
		}
	}
}

func TestRunLoadsBinaryGraphs(t *testing.T) {
	dir := t.TempDir()
	gb := rbq.NewGraphBuilder(2, 1)
	gb.AddNode("A")
	gb.AddNode("B")
	gb.AddEdge(0, 1)
	db := rbq.NewDB(gb.Build())
	path := filepath.Join(dir, "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out, errb bytes.Buffer
	code := run([]string{"-graph", path, "-mode", "reach", "-alpha", "0.9", "-from", "0", "-to", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "reachable(0, 1) = true") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunReachModeWithPersistedIndex(t *testing.T) {
	g, _, _ := writeFixtures(t)
	idx := filepath.Join(t.TempDir(), "oracle.idx")
	// First run builds and saves the index.
	var out1, err1 bytes.Buffer
	code := run([]string{"-graph", g, "-mode", "reach", "-alpha", "0.9",
		"-from", "0", "-to", "3", "-index", idx}, &out1, &err1)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, err1.String())
	}
	if !strings.Contains(out1.String(), "built and saved") {
		t.Fatalf("first run did not save:\n%s", out1.String())
	}
	// Second run loads it.
	var out2, err2 bytes.Buffer
	code = run([]string{"-graph", g, "-mode", "reach", "-alpha", "0.9",
		"-from", "0", "-to", "3", "-index", idx}, &out2, &err2)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, err2.String())
	}
	if !strings.Contains(out2.String(), "loaded from") {
		t.Fatalf("second run did not load:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "reachable(0, 3) = true") {
		t.Fatalf("wrong answer from persisted index:\n%s", out2.String())
	}
}

// TestRunUpdateMode: an op stream mutates the graph batch by batch,
// the pattern is re-answered per batch against the fresh snapshot, and
// the final summary reports the mutated sizes and epoch.
func TestRunUpdateMode(t *testing.T) {
	g, p, _ := writeFixtures(t)
	dir := t.TempDir()
	opsPath := filepath.Join(dir, "stream.ops")
	// Batch 1 grows a second CL behind CC (a new match); batch 2 cuts
	// the HG->CL edge of the original motif (destroying all matches:
	// the pattern needs an HG parent for the output CL).
	ops := "node CL\napply\ndeledge 2 3\napply\n"
	if err := os.WriteFile(opsPath, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-mode", "update", "-ops", opsPath,
		"-pattern", p, "-alpha", "0.9", "-stats"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "batch 0 (1 ops): epoch 1, 1 match(es)") {
		t.Fatalf("batch 0 line missing:\n%s", s)
	}
	if !strings.Contains(s, "batch 1 (1 ops): epoch 2, 0 match(es)") {
		t.Fatalf("batch 1 line missing:\n%s", s)
	}
	if !strings.Contains(s, "applied 2 of 2 batch(es), 2 op(s)") || !strings.Contains(s, "|V|=8 |E|=3") {
		t.Fatalf("summary missing:\n%s", s)
	}
	if !strings.Contains(s, "invalidation(s)") {
		t.Fatalf("stats line missing:\n%s", s)
	}
}

// TestRunUpdateModeCompactionTelemetry: with a compaction threshold
// tight enough to fire mid-stream, each compaction prints its mode
// (full vs incremental), touched-node count and duration.
func TestRunUpdateModeCompactionTelemetry(t *testing.T) {
	g, _, _ := writeFixtures(t)
	dir := t.TempDir()
	opsPath := filepath.Join(dir, "stream.ops")
	ops := "node CL\napply\ndeledge 2 3\napply\n"
	if err := os.WriteFile(opsPath, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-mode", "update", "-ops", opsPath,
		"-compact-threshold", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "compaction 1 after batch 0:") ||
		!strings.Contains(s, "compaction 2 after batch 1:") {
		t.Fatalf("per-compaction lines missing:\n%s", s)
	}
	if !strings.Contains(s, "touched node(s)") {
		t.Fatalf("touched-node telemetry missing:\n%s", s)
	}
	if !strings.Contains(s, "incremental") && !strings.Contains(s, "full") {
		t.Fatalf("compaction mode missing:\n%s", s)
	}
}

// TestRunUpdateModeRejectsBadStream: an op conflicting with the graph
// fails the run with a batch-numbered error.
func TestRunUpdateModeRejectsBadStream(t *testing.T) {
	g, _, _ := writeFixtures(t)
	dir := t.TempDir()
	opsPath := filepath.Join(dir, "bad.ops")
	if err := os.WriteFile(opsPath, []byte("edge 0 1\napply\n"), 0o644); err != nil {
		t.Fatal(err) // (0,1) already exists in the fixture graph
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-graph", g, "-mode", "update", "-ops", opsPath}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "batch 0") {
		t.Fatalf("error does not name the batch: %s", errb.String())
	}
}

// TestRunUpdateModePartialProgress: a batch the DB rejects mid-stream
// keeps every earlier batch applied, reports the batch index and the
// ops-file line it starts at, prints the last good epoch's summary, and
// exits nonzero.
func TestRunUpdateModePartialProgress(t *testing.T) {
	g, _, _ := writeFixtures(t)
	dir := t.TempDir()
	opsPath := filepath.Join(dir, "partial.ops")
	// Batch 0 is fine; batch 1 (starting at line 3) re-adds edge 0->1,
	// which the fixture graph already has, so Apply rejects it; batch 2
	// must never land.
	ops := "node CL\napply\nedge 0 1\napply\nnode NEVER\napply\n"
	if err := os.WriteFile(opsPath, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-graph", g, "-mode", "update", "-ops", opsPath}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "batch 1 (ops line 3)") {
		t.Fatalf("error does not name batch and line: %s", errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "applied 1 of 3 batch(es), 1 op(s)") || !strings.Contains(s, "|V|=8") {
		t.Fatalf("partial-progress summary missing:\n%s", s)
	}
	if !strings.Contains(s, "epoch 1") {
		t.Fatalf("summary does not reflect the last good epoch:\n%s", s)
	}
}

// TestRunUpdateModeMalformedStream: a parse error mid-file still
// applies the well-formed prefix and exits nonzero with a line-numbered
// error.
func TestRunUpdateModeMalformedStream(t *testing.T) {
	g, _, _ := writeFixtures(t)
	dir := t.TempDir()
	opsPath := filepath.Join(dir, "malformed.ops")
	ops := "node CL\napply\nedge zero one\napply\n"
	if err := os.WriteFile(opsPath, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-graph", g, "-mode", "update", "-ops", opsPath}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "ops line 3") {
		t.Fatalf("parse error does not name the line: %s", errb.String())
	}
	if !strings.Contains(out.String(), "applied 1 of 1 batch(es)") {
		t.Fatalf("well-formed prefix was not applied:\n%s", out.String())
	}
}

// TestRunPersistentDB: -db bootstraps a fresh directory from -graph,
// update batches survive the process, and a second invocation resumes
// from disk (ignoring -graph) and sees the mutated graph.
func TestRunPersistentDB(t *testing.T) {
	g, p, _ := writeFixtures(t)
	dbDir := filepath.Join(t.TempDir(), "db")
	opsPath := filepath.Join(t.TempDir(), "stream.ops")
	if err := os.WriteFile(opsPath, []byte("node CL\napply\ndeledge 2 3\napply\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out1, err1 bytes.Buffer
	code := run([]string{"-db", dbDir, "-graph", g, "-mode", "update", "-ops", opsPath}, &out1, &err1)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, err1.String())
	}
	s := out1.String()
	if !strings.Contains(s, "fresh, bootstrapped") || !strings.Contains(s, "durable through seq 2") {
		t.Fatalf("persistence lines missing:\n%s", s)
	}
	// Second run: resume without -graph, query the mutated graph. The
	// fixture motif was cut by the deledge, so the pattern has 0 matches.
	var out2, err2 bytes.Buffer
	code = run([]string{"-db", dbDir, "-mode", "sim", "-pattern", p, "-alpha", "0.9"}, &out2, &err2)
	if code != 0 {
		t.Fatalf("resume exit %d, stderr: %s", code, err2.String())
	}
	s = out2.String()
	if !strings.Contains(s, "base seq 0, replayed 2 batch(es)") {
		t.Fatalf("recovery line missing:\n%s", s)
	}
	if !strings.Contains(s, "|V|=8 |E|=3") || !strings.Contains(s, "0 match(es)") {
		t.Fatalf("resumed DB does not reflect the durable mutations:\n%s", s)
	}
}
