package simulation

import (
	"reflect"
	"testing"

	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/pattern"
)

// interruptFixture builds a star graph (hub P with leaves C) big enough
// that the ball-local fixpoint of MatchOpt examines several probe
// strides of candidates, and the P→C chain pattern rooted at the hub.
func interruptFixture(t *testing.T, leaves int) (*graph.Graph, *pattern.Pattern, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(leaves+1, leaves)
	hub := b.AddNode("P")
	for i := 0; i < leaves; i++ {
		b.AddEdge(hub, b.AddNode("C"))
	}
	pb := pattern.NewBuilder()
	pp := pb.AddNode("P")
	pc := pb.AddNode("C")
	pb.AddEdge(pp, pc).SetPersonalized(pp).SetOutput(pc)
	return b.Build(), pb.MustBuild(), hub
}

// TestMatchOptInterruptPromptly: a closed done channel stops the
// ball-local fixpoint within one probe stride of examined candidates —
// the promptness bound the facade's Exact-mode cancellation rests on,
// mirroring the reduce engine's contract.
func TestMatchOptInterruptPromptly(t *testing.T) {
	g, p, vp := interruptFixture(t, 4*interrupt.Stride)
	var csr graph.FragCSR
	var sc Scratch
	g.BallInto(vp, p.Diameter(), &csr, nil)

	// The uncanceled run must be big enough that stopping after one
	// stride is observable.
	base, complete, visited := MatchFragment(&csr, p, labelsOf(g, p), csr.PosOf(vp), &sc, nil)
	if !complete {
		t.Fatal("uncanceled run reported incomplete")
	}
	if visited <= 2*interrupt.Stride {
		t.Fatalf("fixture too small: uncanceled fixpoint examined only %d candidates", visited)
	}
	if len(base) != 4*interrupt.Stride {
		t.Fatalf("uncanceled run found %d matches, want %d", len(base), 4*interrupt.Stride)
	}

	done := make(chan struct{})
	close(done)
	m, complete, visited := MatchFragment(&csr, p, labelsOf(g, p), csr.PosOf(vp), &sc, done)
	if complete {
		t.Fatal("closed done channel not observed")
	}
	if m != nil {
		t.Fatalf("canceled run returned a partial answer: %d matches", len(m))
	}
	if visited > interrupt.Stride {
		t.Fatalf("examined %d candidates after cancellation, want ≤ one stride (%d)",
			visited, interrupt.Stride)
	}
	if got, complete := MatchOpt(g, p, labelsOf(g, p), vp, done); complete || got != nil {
		t.Fatalf("MatchOpt ignored the closed channel: complete=%v matches=%d", complete, len(got))
	}
}

// TestMatchOptInterruptOpenChannelHarmless: an open (never-fired) done
// channel leaves MatchOpt bit-for-bit identical to a nil one.
func TestMatchOptInterruptOpenChannelHarmless(t *testing.T) {
	g, p, vp := interruptFixture(t, 2*interrupt.Stride)
	want, _ := MatchOpt(g, p, labelsOf(g, p), vp, nil)
	done := make(chan struct{})
	got, complete := MatchOpt(g, p, labelsOf(g, p), vp, done)
	if !complete {
		t.Fatal("open channel reported incomplete")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("open-channel answer diverges: %d vs %d matches", len(got), len(want))
	}
}
