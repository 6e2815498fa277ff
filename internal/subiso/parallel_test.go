package subiso

import (
	"reflect"
	"runtime"
	"testing"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// MatchOptMany must equal a serial loop of MatchOpt calls slot for slot
// — including under a MaxSteps cap, which truncates each pin's search
// independently — at every pool width.
func TestMatchOptManyEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	g := gen.Random(gen.GraphConfig{Nodes: 1000, Edges: 3000, Seed: 17, PowerLaw: true})
	p := gen.PatternAt(g, 55, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 6})
	if p == nil {
		t.Fatal("no pattern")
	}
	l := g.LabelIDOf(p.Label(p.Personalized()))
	pins := g.NodesWithLabel(l)
	if len(pins) < 8 {
		t.Fatalf("only %d pins", len(pins))
	}
	for _, opts := range []*Options{nil, {MaxSteps: 100}} {
		want := make([][]graph.NodeID, len(pins))
		wantOK := true
		for i, vp := range pins {
			m, ok := MatchOpt(g, p, labelsOf(g, p), vp, opts)
			want[i] = m
			wantOK = wantOK && ok
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, ok := MatchOptMany(g, p, labelsOf(g, p), pins, workers, opts)
			if ok != wantOK {
				t.Fatalf("opts=%+v W=%d: complete=%v, want %v", opts, workers, ok, wantOK)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts=%+v W=%d: per-pin answers diverge from serial", opts, workers)
			}
		}
	}
	// A pre-fired interrupt abandons the batch.
	done := make(chan struct{})
	close(done)
	if _, ok := MatchOptMany(g, p, labelsOf(g, p), pins, 4, &Options{Interrupt: done}); ok {
		t.Fatal("pre-fired interrupt reported complete")
	}
}
