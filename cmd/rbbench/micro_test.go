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

// TestCompareResidentLedger: the memory ledger has no ns/op, but -compare
// gates its four figures exactly — any rise fails, a fall or no change
// passes.
func TestCompareResidentLedger(t *testing.T) {
	ledger := func(gn, ge, an, ae float64) microResult {
		return microResult{Name: residentEntry, Iterations: 1, GraphBytesPerNode: gn, GraphBytesPerEdge: ge, AuxBytesPerNode: an, AuxBytesPerEdge: ae}
	}
	base := map[string]microResult{residentEntry: ledger(16.1, 8.0, 12, 14.1)}
	var errb bytes.Buffer
	for _, ok := range []microResult{ledger(16.1, 8.0, 12, 14.1), ledger(16.1, 8.0, 12, 6.1)} {
		if err := compareBaseline([]microResult{ok}, base, "base.json", 0.25, true, &errb); err != nil {
			t.Fatalf("an unchanged or smaller ledger must pass: %v", err)
		}
	}
	for i, bad := range []microResult{ledger(16.2, 8.0, 12, 14.1), ledger(16.1, 8.01, 12, 14.1), ledger(16.1, 8.0, 12.5, 14.1), ledger(16.1, 8.0, 12, 14.2)} {
		err := compareBaseline([]microResult{bad}, base, "base.json", 0.25, true, &errb)
		if err == nil || !strings.Contains(err.Error(), residentEntry) {
			t.Fatalf("figure %d rose: the gate must fail naming %s, got %v", i, residentEntry, err)
		}
	}
}

// TestCompareWorkCounts: an engine entry's work counts are exact, so
// -compare fails on any rise, passes equal or lower counts, and skips a
// baseline entry that records none.
func TestCompareWorkCounts(t *testing.T) {
	withWork := func(work map[string]int) microResult {
		r := entry("PreparedRBSimQuery", 1000, 0, 1)
		r.Work = work
		return r
	}
	base := map[string]microResult{"PreparedRBSimQuery": withWork(map[string]int{"visited": 133, "guard_calls": 8})}
	var errb bytes.Buffer
	for _, ok := range []map[string]int{{"visited": 133, "guard_calls": 8}, {"visited": 120, "guard_calls": 8}} {
		if err := compareBaseline([]microResult{withWork(ok)}, base, "base.json", 0.25, true, &errb); err != nil {
			t.Fatalf("equal or lower work counts %v must pass: %v", ok, err)
		}
	}
	err := compareBaseline([]microResult{withWork(map[string]int{"visited": 134, "guard_calls": 8})}, base, "base.json", 0.25, true, &errb)
	if err == nil || !strings.Contains(err.Error(), "work visited 133 -> 134") {
		t.Fatalf("a risen work count must fail naming it, got %v", err)
	}
	base["PreparedRBSimQuery"] = withWork(nil)
	errb.Reset()
	if err := compareBaseline([]microResult{withWork(map[string]int{"visited": 999})}, base, "base.json", 0.25, true, &errb); err != nil {
		t.Fatalf("a baseline entry without work must be skipped: %v", err)
	}
	if strings.Contains(errb.String(), "work") {
		t.Fatalf("no work comparison expected without a baseline:\n%s", errb.String())
	}
}
