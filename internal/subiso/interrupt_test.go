package subiso

import (
	"testing"

	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/pattern"
)

// interruptFixture builds a hub graph and a two-child star pattern whose
// full backtracking search takes far more than one probe stride.
func interruptFixture(t *testing.T) (*graph.Graph, *pattern.Pattern, graph.NodeID) {
	t.Helper()
	leaves := 2 * interrupt.Stride
	b := graph.NewBuilder(leaves+1, leaves)
	hub := b.AddNode("P")
	for i := 0; i < leaves; i++ {
		b.AddEdge(hub, b.AddNode("C"))
	}
	pb := pattern.NewBuilder()
	pp := pb.AddNode("P")
	c1 := pb.AddNode("C")
	c2 := pb.AddNode("C")
	pb.AddEdge(pp, c1).AddEdge(pp, c2)
	pb.SetPersonalized(pp).SetOutput(c2)
	return b.Build(), pb.MustBuild(), hub
}

// TestInterruptStopsBacktracker: a closed Interrupt channel ends the
// search through the existing step budget — complete=false, partial
// answers — instead of running the full enumeration.
func TestInterruptStopsBacktracker(t *testing.T) {
	g, p, hub := interruptFixture(t)
	full, complete := Match(g, p, hub, nil)
	if !complete || len(full) < 100 {
		t.Fatalf("fixture too small: %d answers, complete=%v", len(full), complete)
	}
	done := make(chan struct{})
	close(done)
	partial, complete := Match(g, p, hub, &Options{Interrupt: done})
	if complete {
		t.Fatal("closed Interrupt not observed: search reported complete")
	}
	if len(partial) >= len(full) {
		t.Fatalf("canceled search still enumerated everything (%d answers)", len(partial))
	}
}

// TestInterruptOpenChannelHarmless: an open Interrupt leaves answers and
// completeness identical to a nil Options.
func TestInterruptOpenChannelHarmless(t *testing.T) {
	g, p, hub := interruptFixture(t)
	want, wantOK := Match(g, p, hub, nil)
	done := make(chan struct{})
	got, gotOK := Match(g, p, hub, &Options{Interrupt: done})
	if gotOK != wantOK || len(got) != len(want) {
		t.Fatalf("open-channel run diverged: %d/%v vs %d/%v", len(got), gotOK, len(want), wantOK)
	}
}

// TestInterruptStopsBallExtraction: MatchOpt's extraction BFS probes the
// Interrupt channel too — a canceled context must be honored even when
// the ball alone is huge, before the backtracker ever starts.
func TestInterruptStopsBallExtraction(t *testing.T) {
	g, p, hub := interruptFixture(t)
	done := make(chan struct{})
	close(done)
	m, complete := MatchOpt(g, p, labelsOf(g, p), hub, &Options{Interrupt: done})
	if complete || m != nil {
		t.Fatalf("closed Interrupt ignored: complete=%v, %d answers", complete, len(m))
	}
	open := make(chan struct{})
	want, wantOK := MatchOpt(g, p, labelsOf(g, p), hub, nil)
	got, gotOK := MatchOpt(g, p, labelsOf(g, p), hub, &Options{Interrupt: open})
	if gotOK != wantOK || len(got) != len(want) {
		t.Fatalf("open-channel MatchOpt diverged: %d/%v vs %d/%v", len(got), gotOK, len(want), wantOK)
	}
}
