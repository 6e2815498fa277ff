package dataset

import (
	"bytes"
	"math"
	"testing"

	"rbq/internal/graph"
)

// TestResidentBytesPerItem pins the memory ledger of a loaded graph and
// its Aux — resident bytes per node and per edge, as ResidentBytes counts
// them — on YoutubeLike(200k), decoded from its binary file as rbqd loads
// one. The graph holds each list once, in adjacency order, and the Aux
// holds no adjacency: its bytes per edge are the histograms', 8 below the
// 20.3487 it held with a label-grouped copy of both directions (8 B/edge),
// plus the arena slack buildHists documents — capacity for the bound
// Σ min(degree, |labels|) per direction, of which the histograms use less.
// A rise in any figure is a structure that grew.
func TestResidentBytesPerItem(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, YoutubeLike(200_000, 1)); err != nil {
		t.Fatal(err)
	}
	g, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	aux := graph.BuildAux(g)
	n, m := float64(g.NumNodes()), float64(g.NumEdges())
	gr, ar := g.ResidentBytes(), aux.ResidentBytes()
	got := map[string]float64{
		"graph B/node": float64(gr.NodeBytes) / n,
		"graph B/edge": float64(gr.EdgeBytes) / m,
		"aux B/node":   float64(ar.NodeBytes) / n,
		"aux B/edge":   float64(ar.EdgeBytes) / m,
	}
	// The slack: the histogram bound less the entries used, 8 bytes each.
	nl, bound := g.NumLabels(), 0
	for v := range graph.NodeID(g.NumNodes()) {
		bound += min(g.OutDegree(v), nl) + min(g.InDegree(v), nl)
	}
	used := 0
	for v := range graph.NodeID(g.NumNodes()) {
		used += len(aux.OutLabelHist(v)) + len(aux.InLabelHist(v))
	}
	slack := 8 * float64(bound-used) / m
	for name, want := range map[string]float64{
		"graph B/node": 16.1805,
		"graph B/edge": 8.0132,
		"aux B/node":   12.0000,
		"aux B/edge":   20.3487 - 8 + slack,
	} {
		t.Logf("%s: %.4f", name, got[name])
		if math.Abs(got[name]-want) > 5e-5 {
			t.Errorf("%s = %.4f, want %.4f", name, got[name], want)
		}
	}
}
