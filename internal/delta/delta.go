// Package delta is the mutation subsystem under the request layer: a
// buffered, validated Delta of node adds, edge adds and edge deletes
// over an immutable base graph, sealed into immutable Snapshots that
// every engine path executes against.
//
// The shape follows the incremental-view literature on answering
// queries under updates (Berkholz/Keppeler/Schweikardt): instead of
// rebuilding the offline structures per change, a Delta maintains the
// *net* difference against the base, and sealing layers it onto the
// base as an overlay view (graph.WithOverlay) plus a patched Aux
// (graph.Aux.PatchedFor) whose label histograms are overridden only for
// the touched nodes. A read of an untouched node — the overwhelming
// majority under a bounded delta — costs a nil check and one bit test,
// then takes the allocation-free base-CSR path, however large the delta.
//
// Concurrency contract: a Delta is owned by one writer (the facade
// serializes Apply behind a mutex); Snapshots are immutable and safe
// for unsynchronized concurrent readers, which is what lets the facade
// publish them through one atomic pointer with no reader-side locking.
// Compaction (Snapshot.Compacted) materializes the merged view as a new
// base CSR + Aux off the request path — spliced from the overlay's
// merged segments and the patched histograms, in time proportional to
// what changed — and the facade swaps it in and starts an empty Delta
// over the new base.
package delta

import (
	"fmt"

	"rbq/internal/graph"
)

// OpKind discriminates mutation operations.
type OpKind uint8

const (
	// OpAddNode appends a node carrying Op.Label. The new node's id is
	// the mutated graph's node count at the time the op takes effect
	// (ids are dense and nodes are never deleted).
	OpAddNode OpKind = iota
	// OpAddEdge inserts the directed edge (From, To). The edge must not
	// exist in the mutated view; endpoints may be nodes added earlier in
	// the same batch.
	OpAddEdge
	// OpDelEdge removes the directed edge (From, To), which must exist
	// in the mutated view. Node labels are immutable and nodes are never
	// deleted — the paper's offline structures are keyed by node, and
	// tombstoning ids would poison every dense array downstream.
	OpDelEdge
)

// Op is one mutation operation. Build with AddNode/AddEdge/DelEdge.
type Op struct {
	Kind     OpKind
	Label    string // OpAddNode only
	From, To graph.NodeID
}

// AddNode returns an op appending a node labeled label.
func AddNode(label string) Op { return Op{Kind: OpAddNode, Label: label} }

// AddEdge returns an op inserting the directed edge (from, to).
func AddEdge(from, to graph.NodeID) Op { return Op{Kind: OpAddEdge, From: from, To: to} }

// DelEdge returns an op removing the directed edge (from, to).
func DelEdge(from, to graph.NodeID) Op { return Op{Kind: OpDelEdge, From: from, To: to} }

func (op Op) String() string {
	switch op.Kind {
	case OpAddNode:
		return fmt.Sprintf("node %s", op.Label)
	case OpAddEdge:
		return fmt.Sprintf("edge %d %d", op.From, op.To)
	case OpDelEdge:
		return fmt.Sprintf("deledge %d %d", op.From, op.To)
	}
	return fmt.Sprintf("op(kind %d)", op.Kind)
}

type edgeKey = [2]graph.NodeID

// Delta is the buffered net mutation set over a base graph: labels of
// appended nodes, net-new edges, and deleted base edges. Ops cancel —
// deleting an edge added earlier shrinks the delta — so Ops() measures
// the true distance from the base, which is what the facade's
// compaction threshold meters.
type Delta struct {
	base    *graph.Graph
	baseAux *graph.Aux

	newNodes []string
	addEdges map[edgeKey]struct{}
	delEdges map[edgeKey]struct{}
}

// New returns an empty Delta over the base graph and its Aux. base must
// be a base CSR (not an overlay view): deltas always re-seal against
// the base, overlays never stack.
func New(base *graph.Graph, baseAux *graph.Aux) *Delta {
	if base.HasOverlay() {
		panic("delta: New on an overlay view")
	}
	return &Delta{
		base:     base,
		baseAux:  baseAux,
		addEdges: make(map[edgeKey]struct{}),
		delEdges: make(map[edgeKey]struct{}),
	}
}

// Base returns the base graph the delta accumulates against.
func (d *Delta) Base() *graph.Graph { return d.base }

// Ops returns the net number of buffered changes.
func (d *Delta) Ops() int { return len(d.newNodes) + len(d.addEdges) + len(d.delEdges) }

// NumNodes returns the node count of the mutated view.
func (d *Delta) NumNodes() int { return d.base.NumNodes() + len(d.newNodes) }

// edgeExists reports whether (u,v) is present in the mutated view,
// consulting a batch-local override map first (see Apply).
func (d *Delta) edgeExists(batch map[edgeKey]bool, u, v graph.NodeID) bool {
	e := edgeKey{u, v}
	if present, ok := batch[e]; ok {
		return present
	}
	if _, ok := d.addEdges[e]; ok {
		return true
	}
	if _, ok := d.delEdges[e]; ok {
		return false
	}
	return int(u) < d.base.NumNodes() && int(v) < d.base.NumNodes() && d.base.HasEdge(u, v)
}

// stage validates one batch against (live delta + batch so far) without
// touching live state, filling caller-allocated batchEdges with the net
// in-batch edge overrides and returning the labels of in-batch node
// adds. The map is a parameter rather than a return value so it never
// escapes: Apply's copy stays off the heap, keeping the batch hot path
// at its pre-Validate allocation count.
func (d *Delta) stage(ops []Op, batchEdges map[edgeKey]bool) (batchNodes []string, err error) {
	n := graph.NodeID(d.NumNodes())
	for i, op := range ops {
		switch op.Kind {
		case OpAddNode:
			if op.Label == "" {
				return nil, fmt.Errorf("delta: op %d: empty node label", i)
			}
			batchNodes = append(batchNodes, op.Label)
			n++
		case OpAddEdge:
			if op.From < 0 || op.From >= n || op.To < 0 || op.To >= n {
				return nil, fmt.Errorf("delta: op %d: edge (%d,%d) out of range [0,%d)", i, op.From, op.To, n)
			}
			if d.edgeExists(batchEdges, op.From, op.To) {
				return nil, fmt.Errorf("delta: op %d: edge (%d,%d) already exists", i, op.From, op.To)
			}
			batchEdges[edgeKey{op.From, op.To}] = true
		case OpDelEdge:
			if op.From < 0 || op.From >= n || op.To < 0 || op.To >= n {
				return nil, fmt.Errorf("delta: op %d: edge (%d,%d) out of range [0,%d)", i, op.From, op.To, n)
			}
			if !d.edgeExists(batchEdges, op.From, op.To) {
				return nil, fmt.Errorf("delta: op %d: edge (%d,%d) does not exist", i, op.From, op.To)
			}
			batchEdges[edgeKey{op.From, op.To}] = false
		default:
			return nil, fmt.Errorf("delta: op %d: unknown kind %d", i, op.Kind)
		}
	}
	return batchNodes, nil
}

// Validate checks one batch of ops against the mutated view exactly as
// Apply would, without changing the Delta. The facade uses it to decide
// whether a batch deserves a WAL record before any state moves: a batch
// that passes Validate cannot fail the Apply that immediately follows.
func (d *Delta) Validate(ops []Op) error {
	_, err := d.stage(ops, make(map[edgeKey]bool))
	return err
}

// Apply validates and buffers one batch of ops, atomically: either
// every op is consistent with the mutated view (in batch order, so an
// edge may target a node added earlier in the same batch) and the whole
// batch lands, or the Delta is left exactly as it was and the error
// names the first offending op.
func (d *Delta) Apply(ops []Op) error {
	batchEdges := make(map[edgeKey]bool)
	batchNodes, err := d.stage(ops, batchEdges)
	if err != nil {
		return err
	}
	// Phase 2 — merge the batch's net effect into the live delta. The
	// rules keep addEdges/delEdges disjoint and minimal: an edge that
	// ends where the base has it leaves no trace.
	d.newNodes = append(d.newNodes, batchNodes...)
	baseN := d.base.NumNodes()
	for e, present := range batchEdges {
		inBase := int(e[0]) < baseN && int(e[1]) < baseN && d.base.HasEdge(e[0], e[1])
		if present {
			if _, deleted := d.delEdges[e]; deleted {
				delete(d.delEdges, e) // resurrecting a deleted base edge
			} else if !inBase {
				d.addEdges[e] = struct{}{}
			}
			// inBase && !deleted: the batch deleted and re-added a base
			// edge the live delta never touched — net nothing.
		} else {
			if _, added := d.addEdges[e]; added {
				delete(d.addEdges, e) // removing an edge the delta added
			} else if inBase {
				d.delEdges[e] = struct{}{}
			}
			// !inBase && !added: the batch added then deleted a brand-new
			// edge — net nothing.
		}
	}
	return nil
}

// Seal layers the delta onto its base and returns the resulting
// immutable Snapshot at the given epoch: the overlay graph view, the
// patched Aux, and the live op count. An empty delta seals to the base
// itself (zero overlay, zero overhead). Sealing is O(delta) plus one
// pass over the |V|/64 words of the touched bitset, not O(|G|), and
// leaves the Delta untouched — the facade re-seals the
// cumulative delta after every Apply.
func (d *Delta) Seal(epoch uint64) (*Snapshot, error) {
	if d.Ops() == 0 {
		return &Snapshot{epoch: epoch, g: d.base, aux: d.baseAux}, nil
	}
	spec := graph.OverlayDelta{
		NewNodeLabels: d.newNodes,
		AddEdges:      make([][2]graph.NodeID, 0, len(d.addEdges)),
		DelEdges:      make([][2]graph.NodeID, 0, len(d.delEdges)),
	}
	for e := range d.addEdges {
		spec.AddEdges = append(spec.AddEdges, e)
	}
	for e := range d.delEdges {
		spec.DelEdges = append(spec.DelEdges, e)
	}
	view, err := d.base.WithOverlay(spec)
	if err != nil {
		return nil, fmt.Errorf("delta: seal: %w", err)
	}
	aux, err := d.baseAux.PatchedFor(view)
	if err != nil {
		return nil, fmt.Errorf("delta: seal: %w", err)
	}
	return &Snapshot{epoch: epoch, g: view, aux: aux, ops: d.Ops()}, nil
}

// Snapshot is one immutable point-in-time view of a mutable graph: a
// graph (base CSR, or base + sealed overlay), its Aux, and the epoch
// the facade published it under. Readers pin a snapshot with one atomic
// pointer load and keep every structure they touch consistent for the
// query's lifetime, however many Applies land meanwhile.
type Snapshot struct {
	epoch uint64
	g     *graph.Graph
	aux   *graph.Aux
	ops   int
}

// NewBase wraps a base graph and its Aux as a clean snapshot.
func NewBase(g *graph.Graph, aux *graph.Aux, epoch uint64) *Snapshot {
	return &Snapshot{epoch: epoch, g: g, aux: aux}
}

// Graph returns the snapshot's graph view.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Aux returns the snapshot's auxiliary structure.
func (s *Snapshot) Aux() *graph.Aux { return s.aux }

// Epoch returns the publish epoch; it increments with every Apply or
// compaction, and keys plan-cache invalidation.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// LiveOps returns the number of delta ops folded into the view — zero
// for a clean (base or freshly compacted) snapshot.
func (s *Snapshot) LiveOps() int { return s.ops }

// Compacted materializes the snapshot's view as a standalone base CSR
// with its Aux, at the given epoch, run off the request path: readers
// keep executing against the old snapshot until the facade swaps the
// result in. The new base and Aux are spliced from the overlay's merged
// segments and the patched histograms (graph.CompactIncremental) in
// O(|delta| + touched-degree) plus flat array copies; no BuildAux pass
// runs. A clean snapshot is re-stamped without compacting.
func (s *Snapshot) Compacted(epoch uint64) *Snapshot {
	if s.ops == 0 {
		return &Snapshot{epoch: epoch, g: s.g, aux: s.aux}
	}
	g, aux := graph.CompactIncremental(s.g, s.aux)
	return &Snapshot{epoch: epoch, g: g, aux: aux}
}
