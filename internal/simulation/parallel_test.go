package simulation

import (
	"reflect"
	"runtime"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// MatchOptMany must equal a serial loop of MatchOpt calls, slot for
// slot, at every pool width.
func TestMatchOptManyEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	g := gen.Random(gen.GraphConfig{Nodes: 1200, Edges: 3600, Seed: 5, PowerLaw: true})
	p := gen.PatternAt(g, 77, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 2})
	if p == nil {
		t.Fatal("no pattern")
	}
	rooted := p
	// Pins: every node carrying the personalized label.
	l := g.LabelIDOf(p.Label(p.Personalized()))
	pins := g.NodesWithLabel(l)
	if len(pins) < 8 {
		t.Fatalf("only %d pins", len(pins))
	}
	labels := labelsOf(g, rooted)
	want := make([][]graph.NodeID, len(pins))
	for i, vp := range pins {
		want[i], _ = MatchOpt(g, rooted, labels, vp, nil)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, ok := MatchOptMany(g, rooted, labels, pins, workers, nil)
		if !ok {
			t.Fatalf("W=%d: not ok without interrupt", workers)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("W=%d: per-pin answers diverge from serial", workers)
		}
	}
	// A pre-fired channel abandons the batch.
	done := make(chan struct{})
	close(done)
	if _, ok := MatchOptMany(g, rooted, labels, pins, 4, done); ok {
		t.Fatal("pre-fired done reported ok")
	}
}
