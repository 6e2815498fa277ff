package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"rbq"
)

// Every write batch deletes batchDels base edges and adds batchAdds
// net-new ones, so |G| stays constant while the live delta grows by
// batchOps per batch: with rbqd's -compact-threshold 2048 that is one
// compaction every 32 batches.
const (
	batchDels = 32
	batchAdds = 32
	batchOps  = batchDels + batchAdds
)

// opGen emits mutation batches that are valid by construction against a
// DB that started as g and received exactly the batches emitted so far:
// it never deletes an edge that is absent or already deleted, never
// adds one that exists or was already added, and never re-adds a deleted
// edge or deletes an added one (which would cancel in the net delta).
type opGen struct {
	g       *rbq.Graph
	rng     *rand.Rand
	deleted map[[2]rbq.NodeID]bool
	added   map[[2]rbq.NodeID]bool
}

func newOpGen(g *rbq.Graph, seed int64) *opGen {
	return &opGen{
		g:       g,
		rng:     rand.New(rand.NewSource(seed)),
		deleted: make(map[[2]rbq.NodeID]bool),
		added:   make(map[[2]rbq.NodeID]bool),
	}
}

// next returns one batch of dels base-edge deletions followed by adds
// net-new edges. It fails only when the base graph has run out of edges
// to delete; the workloads are sized far below that.
func (o *opGen) next(dels, adds int) ([]rbq.Op, error) {
	if len(o.deleted)+dels > o.g.NumEdges() {
		return nil, fmt.Errorf("op stream: base graph has no %d undeleted edges left", dels)
	}
	n := o.g.NumNodes()
	ops := make([]rbq.Op, 0, dels+adds)
	for len(ops) < dels {
		u := rbq.NodeID(o.rng.Intn(n))
		out := o.g.Out(u)
		if len(out) == 0 {
			continue
		}
		e := [2]rbq.NodeID{u, out[o.rng.Intn(len(out))]}
		if o.deleted[e] {
			continue
		}
		o.deleted[e] = true
		ops = append(ops, rbq.DelEdge(e[0], e[1]))
	}
	for len(ops) < dels+adds {
		e := [2]rbq.NodeID{rbq.NodeID(o.rng.Intn(n)), rbq.NodeID(o.rng.Intn(n))}
		if e[0] == e[1] || o.added[e] || o.g.HasEdge(e[0], e[1]) {
			continue
		}
		o.added[e] = true
		ops = append(ops, rbq.AddEdge(e[0], e[1]))
	}
	return ops, nil
}

// applyBody renders one batch in the op-stream text format /v1/apply
// reads.
func applyBody(ops []rbq.Op) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	b.WriteString("apply\n")
	return b.Bytes()
}
