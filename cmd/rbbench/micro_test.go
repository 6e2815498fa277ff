package main

import (
	"bytes"
	"strings"
	"testing"
)

func entry(name string, ns, spread float64, allocs int64) microResult {
	return microResult{Name: name, NsPerOp: ns, NsSpread: spread, AllocsPerOp: allocs}
}

func TestEffectiveTolerance(t *testing.T) {
	cases := []struct {
		name      string
		base, cur float64 // recorded spreads
		cli       float64
		want      float64
	}{
		// No spread data (old baseline): keep the CLI tolerance.
		{"no-base-spread", 0, 0.02, 0.25, 0.25},
		{"no-cur-spread", 0.02, 0, 0.25, 0.25},
		// Stable on both hosts: 3x the larger spread, floored at 10%.
		{"very-stable", 0.01, 0.02, 0.25, 0.10},
		{"moderately-noisy", 0.05, 0.06, 0.25, 0.18},
		// Noisy benchmark: adaptive exceeds the CLI ceiling, so the CLI
		// tolerance wins.
		{"noisy", 0.2, 0.3, 0.25, 0.25},
		// The adaptive gate can only tighten, never loosen, a strict CLI
		// tolerance.
		{"strict-cli", 0.5, 0.5, 0.05, 0.05},
	}
	for _, c := range cases {
		got := effectiveTolerance(c.cli, entry("x", 100, c.base, 0), entry("x", 100, c.cur, 0))
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: effectiveTolerance = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestCompareAdaptiveGate: a 20% regression passes under the 25% CLI
// tolerance when the benchmark is noisy, but fails once both reports
// record tight spreads.
func TestCompareAdaptiveGate(t *testing.T) {
	base := map[string]microResult{"E": entry("E", 1000, 0.01, 2)}
	fresh := []microResult{entry("E", 1200, 0.01, 2)}
	var errb bytes.Buffer
	if err := compareBaseline(fresh, base, "base.json", 0.25, true, &errb); err == nil {
		t.Fatal("20% regression on a stable benchmark must fail the tightened gate")
	} else if !strings.Contains(err.Error(), "tolerance 10%") {
		t.Fatalf("error should cite the tightened tolerance: %v", err)
	}

	// Same regression without baseline spread data: the CLI tolerance
	// applies and the comparison passes.
	base["E"] = entry("E", 1000, 0, 2)
	errb.Reset()
	if err := compareBaseline(fresh, base, "base.json", 0.25, true, &errb); err != nil {
		t.Fatalf("legacy baseline without spreads must use the CLI tolerance: %v", err)
	}
}

// TestCompareAllocGateUnchanged: the machine-independent allocation gate
// is unaffected by spreads.
func TestCompareAllocGateUnchanged(t *testing.T) {
	base := map[string]microResult{"E": entry("E", 1000, 0.01, 2)}
	fresh := []microResult{entry("E", 1000, 0.01, 3)}
	var errb bytes.Buffer
	if err := compareBaseline(fresh, base, "base.json", 0.25, true, &errb); err == nil {
		t.Fatal("allocs/op increase must fail regardless of timing spreads")
	}
}

// TestCompareServeEntriesReportOnly: the closed-loop serving latency
// percentiles are never gated, no matter how far they move.
func TestCompareServeEntriesReportOnly(t *testing.T) {
	base := map[string]microResult{"ServeQueryP99": entry("ServeQueryP99", 1000, 0, 0)}
	fresh := []microResult{entry("ServeQueryP99", 10000, 0, 5)}
	var errb bytes.Buffer
	if err := compareBaseline(fresh, base, "base.json", 0.25, true, &errb); err != nil {
		t.Fatalf("serve entries must be report-only: %v", err)
	}
	if !strings.Contains(errb.String(), "report-only") {
		t.Fatalf("comparison should still report the movement:\n%s", errb.String())
	}
}

// TestCompareIgnoresDroppedBaselineEntries: a baseline entry the fresh
// run no longer produces (its benchmark was deleted) is not compared and
// does not fail the gate, so -compare stays usable across the PR that
// drops an entry and the one that refreshes the baseline.
func TestCompareIgnoresDroppedBaselineEntries(t *testing.T) {
	base := map[string]microResult{
		"Kept":    entry("Kept", 1000, 0, 2),
		"Dropped": entry("Dropped", 1000, 0, 2),
	}
	fresh := []microResult{entry("Kept", 1000, 0, 2)}
	var errb bytes.Buffer
	if err := compareBaseline(fresh, base, "base.json", 0.25, true, &errb); err != nil {
		t.Fatalf("a dropped baseline entry must not fail the gate: %v", err)
	}
	if strings.Contains(errb.String(), "Dropped") {
		t.Fatalf("a dropped baseline entry must not be compared:\n%s", errb.String())
	}
}
