package main

import (
	"testing"

	"rbq"
)

// The op stream is valid by construction: replayed into an in-memory
// DB, no batch is ever rejected and |G| never moves, through many
// compactions (each makes earlier additions base edges, which the
// generator must still neither re-add nor mistake for deletable).
func TestOpStreamValidByConstruction(t *testing.T) {
	batches := 10_000
	if testing.Short() {
		batches = 1_000
	}
	// Small batches keep the replay to seconds: DB.Apply re-seals the
	// whole live delta each time, so the threshold is kept low too. The
	// generator's logic does not depend on the batch shape.
	const dels, adds = 4, 4
	g := rbq.YoutubeLike(20_000, 7)
	db := rbq.NewDB(g)
	db.SetCompactThreshold(256)
	gen := newOpGen(g, 3)
	nodes, edges := g.NumNodes(), g.NumEdges()
	for i := 0; i < batches; i++ {
		ops, err := gen.next(dels, adds)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(ops) != dels+adds {
			t.Fatalf("batch %d: %d ops, want %d", i, len(ops), dels+adds)
		}
		if err := db.Apply(ops); err != nil {
			t.Fatalf("batch %d rejected: %v", i, err)
		}
		if i%500 == 0 || i == batches-1 {
			if now := db.Graph(); now.NumNodes() != nodes || now.NumEdges() != edges {
				t.Fatalf("after batch %d: |V|=%d |E|=%d, want %d and %d", i, now.NumNodes(), now.NumEdges(), nodes, edges)
			}
		}
	}
	ms := db.MutationStats()
	if want := uint64(batches * (dels + adds) / 256); ms.Compactions != want {
		// Every op stays in the net delta (nothing cancels), so the delta
		// reaches the threshold exactly every 256/8 batches.
		t.Errorf("%d compactions, want %d: some ops cancelled in the net delta", ms.Compactions, want)
	}
}

// Two generators with one seed emit the same stream; another seed, a
// different one.
func TestOpStreamSeeded(t *testing.T) {
	g := rbq.YoutubeLike(5_000, 7)
	body := func(seed int64) string {
		gen := newOpGen(g, seed)
		ops, err := gen.next(batchDels, batchAdds)
		if err != nil {
			t.Fatal(err)
		}
		return string(applyBody(ops))
	}
	if body(1) != body(1) {
		t.Error("same seed, different stream")
	}
	if body(1) == body(2) {
		t.Error("different seeds, same stream")
	}
}
