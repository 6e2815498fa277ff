package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// durRE matches the duration tokens the CLI prints (123µs, 4.5ms, 0s …)
// together with their alignment padding, so golden files stay stable
// across machines and timings.
var durRE = regexp.MustCompile(`[ \t]*\b\d+(\.\d+)?(ns|µs|us|ms|s|m)\b`)

// normalize replaces every duration (and its padding) with " DUR".
func normalize(s string) string {
	return durRE.ReplaceAllString(s, " DUR")
}

// golden compares got against testdata/<name>.golden; set
// UPDATE_GOLDEN=1 to rewrite the files from the current output.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestExplainGoldenSim: -explain renders the compiled plan before the
// query and the phase breakdown after it, exactly as recorded.
func TestExplainGoldenSim(t *testing.T) {
	g, p, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "0.9", "-explain"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	golden(t, "explain_sim", normalize(out.String()))
}

// TestExplainGoldenSub is the subgraph-isomorphism counterpart.
func TestExplainGoldenSub(t *testing.T) {
	g, p, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-pattern", p, "-mode", "sub", "-alpha", "0.9", "-explain"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	golden(t, "explain_sub", normalize(out.String()))
}

// TestTraceFlag: -trace streams the reduction's raw event log to
// stderr — rounds first, stop markers bare.
func TestTraceFlag(t *testing.T) {
	g, p, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-pattern", p, "-mode", "sim", "-alpha", "0.9", "-trace"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	events := errb.String()
	if !strings.Contains(events, "-- round with b=2") {
		t.Fatalf("no round event in:\n%s", events)
	}
	if !strings.Contains(events, "pop (u=") {
		t.Fatalf("no pop events in:\n%s", events)
	}
	if !strings.Contains(out.String(), "match(es)") {
		t.Fatalf("query output missing:\n%s", out.String())
	}
}

// -explain composes with -trace and -exact in one invocation.
func TestExplainComposes(t *testing.T) {
	g, p, _ := writeFixtures(t)
	var out, errb bytes.Buffer
	code := run([]string{"-graph", g, "-pattern", p, "-alpha", "0.9", "-explain", "-trace", "-exact"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"--- explain ---", "--- phases ---", "F=1.000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(errb.String(), "-- round with b=2") {
		t.Fatalf("trace events missing:\n%s", errb.String())
	}
}
