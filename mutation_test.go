package rbq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// shadow mirrors the DB's mutable graph as plain lists, so the property
// test can rebuild "the graph the DB claims to be" from scratch and
// compare answers bit for bit.
type shadow struct {
	labels   []string
	edges    map[[2]NodeID]int // edge -> index in list
	edgeList [][2]NodeID
}

func newShadow(g *Graph) *shadow {
	s := &shadow{edges: make(map[[2]NodeID]int, g.NumEdges())}
	for v := 0; v < g.NumNodes(); v++ {
		s.labels = append(s.labels, g.Label(NodeID(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(NodeID(v)) {
			s.addEdge([2]NodeID{NodeID(v), w})
		}
	}
	return s
}

func (s *shadow) addEdge(e [2]NodeID) {
	s.edges[e] = len(s.edgeList)
	s.edgeList = append(s.edgeList, e)
}

func (s *shadow) delEdge(e [2]NodeID) {
	i := s.edges[e]
	last := s.edgeList[len(s.edgeList)-1]
	s.edgeList[i] = last
	s.edges[last] = i
	s.edgeList = s.edgeList[:len(s.edgeList)-1]
	delete(s.edges, e)
}

// randomBatch draws a batch of ops valid against the shadow (applying
// each op's effect to the shadow immediately, so later ops in the batch
// see earlier ones — the same order contract DB.Apply validates).
func (s *shadow) randomBatch(rng *rand.Rand, n int) []Op {
	ops := make([]Op, 0, n)
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k == 0: // node with an existing label
			label := s.labels[rng.Intn(len(s.labels))]
			ops = append(ops, AddNode(label))
			s.labels = append(s.labels, label)
		case k == 1: // node with a possibly brand-new label
			label := fmt.Sprintf("NEW%d", rng.Intn(4))
			ops = append(ops, AddNode(label))
			s.labels = append(s.labels, label)
		case k <= 6: // edge add
			e := [2]NodeID{NodeID(rng.Intn(len(s.labels))), NodeID(rng.Intn(len(s.labels)))}
			if _, ok := s.edges[e]; ok {
				continue
			}
			ops = append(ops, AddEdge(e[0], e[1]))
			s.addEdge(e)
		default: // edge delete
			if len(s.edgeList) == 0 {
				continue
			}
			e := s.edgeList[rng.Intn(len(s.edgeList))]
			ops = append(ops, DelEdge(e[0], e[1]))
			s.delEdge(e)
		}
	}
	return ops
}

// rebuild constructs a fresh graph from the shadow.
func (s *shadow) rebuild() *Graph { return s.rebuildInterned(nil) }

// rebuildInterned is rebuild with names interned first, in order: given
// the base's label table, the from-scratch graph numbers its labels as
// the mutated DB's lineage does, the base's first and each new label
// after them in order of first use.
func (s *shadow) rebuildInterned(names []string) *Graph {
	b := NewGraphBuilder(len(s.labels), len(s.edgeList))
	for _, name := range names {
		b.Intern(name)
	}
	for _, l := range s.labels {
		b.AddNode(l)
	}
	// Builder sorts and dedups, so insertion order does not matter.
	for _, e := range s.edgeList {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// queryMatrix runs every Semantics × Mode combination the ISSUE's
// equivalence contract names and returns the Results (errors rendered
// into the value so mismatched failures diverge too).
func queryMatrix(t *testing.T, db *DB, q *Pattern, pin NodeID, alpha float64) []Result {
	t.Helper()
	ctx := context.Background()
	reqs := []Request{
		{Semantics: Simulation, Mode: Bounded, Anchor: &pin, Alpha: alpha},
		{Semantics: Simulation, Mode: Exact, Anchor: &pin},
		{Semantics: Simulation, Mode: Unanchored, Alpha: alpha},
		{Semantics: Subgraph, Mode: Bounded, Anchor: &pin, Alpha: alpha, MaxSteps: 500_000},
		{Semantics: Subgraph, Mode: Exact, Anchor: &pin, MaxSteps: 500_000},
		{Semantics: Subgraph, Mode: Unanchored, Alpha: alpha},
	}
	out := make([]Result, len(reqs))
	for i, req := range reqs {
		res, err := db.Query(ctx, q, req)
		if err != nil {
			res = Result{Matches: []NodeID{-2}, Personalized: NoNode}
		}
		// Matrices are compared across DBs — live against rebuilt, recovered
		// against reference — whose epochs differ by construction.
		res.Epoch = 0
		out[i] = res
	}
	return out
}

// TestSnapshotEquivalentToRebuild is the mutation subsystem's core
// property: for random op batches, querying the live Snapshot (overlay
// graph + patched Aux) is bit-for-bit identical to rebuilding the graph
// from scratch and querying that — across Simulation/Subgraph ×
// Bounded/Exact/Unanchored, including every fragment/budget/visited
// counter in the Result. Run both with compaction disabled (pure
// overlay execution) and with compaction after every batch (exercising
// the rebuild-and-swap path).
func TestSnapshotEquivalentToRebuild(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, compactEvery := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/compact=%v", seed, compactEvery)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				base := RandomGraph(400, 1000, seed+1, true)
				db := NewDB(base)
				if compactEvery {
					db.SetCompactThreshold(1)
				}
				sh := newShadow(base)

				// Patterns are drawn from the base graph; their label
				// constraints stay meaningful across mutations. Pins are
				// re-drawn per round from nodes carrying the personalized
				// label, so they are valid in both DBs by construction.
				var pats []*Pattern
				for i := int64(0); i < 40 && len(pats) < 3; i++ {
					cand := graph.NodeID(rng.Intn(base.NumNodes()))
					if base.Degree(cand) < 2 {
						continue
					}
					if q := gen.PatternAt(base, cand, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: seed + i}); q != nil {
						pats = append(pats, q)
					}
				}
				if len(pats) == 0 {
					t.Fatal("no patterns extracted")
				}

				rounds := 4
				batch := 50
				if testing.Short() {
					rounds = 2
				}
				for round := 0; round < rounds; round++ {
					ops := sh.randomBatch(rng, batch)
					if err := db.Apply(ops); err != nil {
						t.Fatalf("round %d: Apply: %v", round, err)
					}
					if err := db.Graph().Validate(); err != nil {
						t.Fatalf("round %d: snapshot graph invalid: %v", round, err)
					}
					ref := NewDB(sh.rebuild())
					if db.Graph().NumNodes() != ref.Graph().NumNodes() ||
						db.Graph().NumEdges() != ref.Graph().NumEdges() {
						t.Fatalf("round %d: size diverges: %d/%d vs %d/%d", round,
							db.Graph().NumNodes(), db.Graph().NumEdges(),
							ref.Graph().NumNodes(), ref.Graph().NumEdges())
					}
					for pi, q := range pats {
						// A pin valid under the pattern's personalized label.
						l := ref.Graph().LabelIDOf(q.Label(q.Personalized()))
						cands := ref.Graph().NodesWithLabel(l)
						if len(cands) == 0 {
							continue
						}
						pin := cands[rng.Intn(len(cands))]
						got := queryMatrix(t, db, q, pin, 0.05)
						want := queryMatrix(t, ref, q, pin, 0.05)
						if !reflect.DeepEqual(got, want) {
							for i := range got {
								if !reflect.DeepEqual(got[i], want[i]) {
									t.Errorf("round %d pattern %d req %d: snapshot %+v\nrebuild  %+v",
										round, pi, i, got[i], want[i])
								}
							}
							t.FailNow()
						}
					}
				}
				if compactEvery {
					if ms := db.MutationStats(); ms.Compactions == 0 || ms.LiveDeltaOps != 0 {
						t.Fatalf("compact-every run never compacted: %+v", ms)
					}
				} else {
					if ms := db.MutationStats(); ms.Compactions != 0 || ms.LiveDeltaOps == 0 {
						t.Fatalf("overlay run compacted unexpectedly: %+v", ms)
					}
				}
			})
		}
	}
}

// TestIncrementalCompactEquivalence is the compaction property: a DB
// compacting every batch by splicing walks random op batches, and after
// each one a from-scratch NewDB over the shadow's graph, with the base's
// label table interned first, is the reference: every Semantics × Mode
// query answer must match it bit for bit, every round, as must the label
// table. One input's label table is not in node order and holds a label
// no node carries, which the splice must keep.
func TestIncrementalCompactEquivalence(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			incrementalCompactEquivalence(t, RandomGraph(400, 1000, seed+2, true), seed)
		})
	}
	t.Run("interned-ahead", func(t *testing.T) {
		incrementalCompactEquivalence(t, withLabelsInternedAhead(RandomGraph(400, 1000, 2, true)), 0)
	})
}

// withLabelsInternedAhead copies g into a GraphBuilder that interned g's
// last node's label and "UNUSED" before adding any node: the copy's label
// table is not in node order and holds a label no node carries.
func withLabelsInternedAhead(g *Graph) *Graph {
	b := NewGraphBuilder(g.NumNodes(), g.NumEdges())
	b.Intern(g.Label(NodeID(g.NumNodes() - 1)))
	b.Intern("UNUSED")
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNode(g.Label(NodeID(v)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(NodeID(v)) {
			b.AddEdge(NodeID(v), w)
		}
	}
	return b.Build()
}

// labelTable lists g's label names by id.
func labelTable(g *Graph) []string {
	names := make([]string, g.NumLabels())
	for l := range names {
		names[l] = g.LabelName(graph.LabelID(l))
	}
	return names
}

func incrementalCompactEquivalence(t *testing.T, base *Graph, seed int64) {
	rng := rand.New(rand.NewSource(seed + 31))
	inc := NewDB(base)
	inc.SetCompactThreshold(1)
	sh := newShadow(base)
	baseLabels := labelTable(base)

	var pats []*Pattern
	for i := int64(0); i < 40 && len(pats) < 3; i++ {
		cand := graph.NodeID(rng.Intn(base.NumNodes()))
		if base.Degree(cand) < 2 {
			continue
		}
		if q := gen.PatternAt(base, cand, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: seed + i}); q != nil {
			pats = append(pats, q)
		}
	}
	if len(pats) == 0 {
		t.Fatal("no patterns extracted")
	}

	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		ops := sh.randomBatch(rng, 50)
		if err := inc.Apply(ops); err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		if err := inc.Graph().Validate(); err != nil {
			t.Fatalf("round %d: spliced graph invalid: %v", round, err)
		}
		ref := NewDB(sh.rebuildInterned(baseLabels))
		if it, rt := labelTable(inc.Graph()), labelTable(ref.Graph()); !reflect.DeepEqual(it, rt) {
			t.Fatalf("round %d: label tables diverge: spliced %q, from scratch %q", round, it, rt)
		}
		for pi, q := range pats {
			l := ref.Graph().LabelIDOf(q.Label(q.Personalized()))
			cands := ref.Graph().NodesWithLabel(l)
			if len(cands) == 0 {
				continue
			}
			pin := cands[rng.Intn(len(cands))]
			want := queryMatrix(t, ref, q, pin, 0.05)
			got := queryMatrix(t, inc, q, pin, 0.05)
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("round %d pattern %d req %d: spliced %+v\nfrom scratch %+v",
							round, pi, i, got[i], want[i])
					}
				}
				t.FailNow()
			}
		}
	}
	ims := inc.MutationStats()
	if ims.Compactions == 0 || ims.Mode != CompactModeIncremental {
		t.Fatalf("DB did not splice: %+v", ims)
	}
	if ims.LastCompactTouchedNodes == 0 {
		t.Fatalf("spliced compaction reported no touched nodes: %+v", ims)
	}
}

// TestCompactSplicesLargeDelta: a small delta and one touching more
// than a quarter of the node set both compact by splicing, visible in
// MutationStats; the spliced graph validates and answers every
// Semantics × Mode query exactly as a fresh NewDB of the same graph.
func TestCompactSplicesLargeDelta(t *testing.T) {
	base := RandomGraph(400, 1000, 9, true)
	db := NewDB(base)
	sh := newShadow(base)

	// Small delta: one fresh node plus an edge.
	n := NodeID(len(sh.labels))
	if err := db.Apply([]Op{AddNode(sh.labels[0]), AddEdge(n, 0)}); err != nil {
		t.Fatal(err)
	}
	sh.labels = append(sh.labels, sh.labels[0])
	sh.addEdge([2]NodeID{n, 0})
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	ms := db.MutationStats()
	if ms.Mode != CompactModeIncremental {
		t.Fatalf("small delta did not splice: %+v", ms)
	}
	if ms.LastCompactTouchedNodes == 0 || ms.LastCompactNs <= 0 {
		t.Fatalf("splice telemetry missing: %+v", ms)
	}

	// Large delta: fan edges out of over a quarter of the nodes.
	g := db.Graph()
	var ops []Op
	for v := 0; v < 150; v++ {
		w := NodeID((v + 211) % g.NumNodes())
		if NodeID(v) == w || g.HasEdge(NodeID(v), w) {
			continue
		}
		ops = append(ops, AddEdge(NodeID(v), w))
		sh.addEdge([2]NodeID{NodeID(v), w})
	}
	if err := db.Apply(ops); err != nil {
		t.Fatal(err)
	}
	touched := db.Graph().TouchedNodes()
	if 4*touched <= g.NumNodes() {
		t.Fatalf("fixture touches %d of %d nodes, want over a quarter", touched, g.NumNodes())
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	ms = db.MutationStats()
	if ms.Mode != CompactModeIncremental || ms.Compactions != 2 || ms.LastCompactTouchedNodes != touched {
		t.Fatalf("large delta did not splice its %d touched nodes: %+v", touched, ms)
	}
	if err := db.Graph().Validate(); err != nil {
		t.Fatal(err)
	}

	ref := NewDB(sh.rebuild())
	rng := rand.New(rand.NewSource(9))
	var checked int
	for i := int64(0); i < 40 && checked < 3; i++ {
		cand := graph.NodeID(rng.Intn(base.NumNodes()))
		if base.Degree(cand) < 2 {
			continue
		}
		q := gen.PatternAt(base, cand, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: i})
		if q == nil {
			continue
		}
		checked++
		want := queryMatrix(t, ref, q, cand, 0.05)
		if got := queryMatrix(t, db, q, cand, 0.05); !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %d at %d: spliced %+v\nfresh %+v", i, cand, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("no patterns extracted")
	}
}

// TestApplyAtomicityAndValidation: a batch with an invalid op leaves
// the DB untouched — snapshot, epoch and stats — and the error wraps
// ErrBadRequest.
func TestApplyAtomicityAndValidation(t *testing.T) {
	g := RandomGraph(50, 120, 1, false)
	db := NewDB(g)
	before := db.MutationStats()
	gBefore := db.Graph()

	var existing [2]NodeID
	for v := 0; v < g.NumNodes(); v++ {
		if out := g.Out(NodeID(v)); len(out) > 0 {
			existing = [2]NodeID{NodeID(v), out[0]}
			break
		}
	}
	bad := [][]Op{
		{AddNode("X"), AddEdge(0, 999)},     // out of range
		{AddEdge(existing[0], existing[1])}, // duplicate of base edge
		{DelEdge(0, 0), AddNode("X")},       // deleting a missing self-loop
		{AddNode("")},                       // empty label
		{AddEdge(1, 2), AddEdge(1, 2)},      // in-batch duplicate
		{DelEdge(existing[0], existing[1]), DelEdge(existing[0], existing[1])}, // double delete
	}
	for i, ops := range bad {
		err := db.Apply(ops)
		if err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("bad batch %d: error %v does not wrap ErrBadRequest", i, err)
		}
	}
	if after := db.MutationStats(); after != before {
		t.Fatalf("failed batches changed stats: %+v -> %+v", before, after)
	}
	if db.Graph() != gBefore {
		t.Fatal("failed batches republished the snapshot")
	}
	if err := db.Apply(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestPlanCacheInvalidationOnApply: a plan depends on the pattern and
// the label alphabet, not on the snapshot. An Apply that adds no label
// leaves the cached template a hit; one that grows the alphabet costs
// exactly one recompile (an invalidation); a compaction costs nothing.
func TestPlanCacheInvalidationOnApply(t *testing.T) {
	g := RandomGraph(200, 500, 2, false)
	db := NewDB(g)
	rng := rand.New(rand.NewSource(9))
	var q *Pattern
	for i := int64(0); q == nil && i < 50; i++ {
		cand := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(cand) >= 2 {
			q = gen.PatternAt(g, cand, gen.PatternConfig{Nodes: 3, Edges: 4, Seed: i})
		}
	}
	if q == nil {
		t.Fatal("no pattern")
	}
	ctx := context.Background()
	l := g.LabelIDOf(q.Label(q.Personalized()))
	pin := Pin(g.NodesWithLabel(l)[0])

	mustQuery := func() {
		t.Helper()
		if _, err := db.Query(ctx, q, Request{Anchor: pin, Alpha: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(step string, hits, misses, invalidations uint64) {
		t.Helper()
		cs := db.PlanCacheStats()
		if cs.Hits != hits || cs.Misses != misses || cs.Invalidations != invalidations || cs.Size != 1 {
			t.Fatalf("%s: %+v, want %d hit(s), %d miss(es), %d invalidation(s), 1 entry",
				step, cs, hits, misses, invalidations)
		}
	}
	mustQuery() // miss: first compile
	mustQuery() // hit
	want("warm-up", 1, 1, 0)
	if err := db.Apply([]Op{AddNode(g.Label(0)), AddEdge(NodeID(g.NumNodes()), 0)}); err != nil {
		t.Fatal(err)
	}
	mustQuery()
	want("same-alphabet Apply", 2, 1, 0)
	if err := db.Apply([]Op{AddNode("BRAND-NEW-LABEL")}); err != nil {
		t.Fatal(err)
	}
	mustQuery() // the alphabet grew: one recompile
	mustQuery()
	want("alphabet growth", 3, 2, 1)
	if err := db.Apply([]Op{AddNode(g.Label(0))}); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	mustQuery()
	want("compaction", 4, 2, 1)
}

// TestApplyQueryCompactRace hammers concurrent Apply / Query /
// QueryBatch / Compact with a tiny compaction threshold, so snapshots
// churn through overlay and rebuilt bases while readers run. The
// assertions are weak (no torn results, valid snapshots); the value is
// under -race, where any unsynchronized snapshot handoff bites. Every
// compaction splices.
func TestApplyQueryCompactRace(t *testing.T) {
	t.Run("splice", applyQueryCompactRace)
}

func applyQueryCompactRace(t *testing.T) {
	base := RandomGraph(300, 800, 5, true)
	db := NewDB(base)
	db.SetCompactThreshold(64)
	rng := rand.New(rand.NewSource(17))
	var q *Pattern
	for i := int64(0); q == nil && i < 50; i++ {
		cand := graph.NodeID(rng.Intn(base.NumNodes()))
		if base.Degree(cand) >= 2 {
			q = gen.PatternAt(base, cand, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: i})
		}
	}
	if q == nil {
		t.Fatal("no pattern")
	}
	l := base.LabelIDOf(q.Label(q.Personalized()))
	pins := base.NodesWithLabel(l)

	deadline := time.Now().Add(400 * time.Millisecond)
	if testing.Short() {
		deadline = time.Now().Add(150 * time.Millisecond)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	// Writers: small valid-shaped batches; concurrent writers may race
	// on the same edge, so ErrBadRequest is tolerated — the point is
	// that the DB stays coherent.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				g := db.Graph()
				n := g.NumNodes()
				ops := []Op{AddNode("RACE")}
				for i := 0; i < 6; i++ {
					if rng.Intn(3) == 0 {
						v := NodeID(rng.Intn(n))
						if out := g.Out(v); len(out) > 0 {
							ops = append(ops, DelEdge(v, out[rng.Intn(len(out))]))
							continue
						}
					}
					ops = append(ops, AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n))))
				}
				if err := db.Apply(ops); err != nil && !errors.Is(err, ErrBadRequest) {
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}(int64(100 + w))
	}
	// Readers: single queries and batches, all modes.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				pin := pins[rng.Intn(len(pins))]
				if _, err := db.Query(ctx, q, Request{Anchor: &pin, Alpha: 0.02}); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if rng.Intn(4) == 0 {
					qs := []AnchoredQuery{{Q: q, At: pins[rng.Intn(len(pins))]}, {Q: q, At: pins[rng.Intn(len(pins))]}}
					if _, err := db.QueryBatch(ctx, qs, Request{Alpha: 0.02}, 2); err != nil {
						t.Errorf("QueryBatch: %v", err)
						return
					}
				}
				if rng.Intn(8) == 0 {
					if _, err := db.Query(ctx, q, Request{Mode: Unanchored, Alpha: 0.02}); err != nil {
						t.Errorf("Unanchored: %v", err)
						return
					}
				}
			}
		}(int64(200 + r))
	}
	// Compactor: explicit rebuilds on top of the threshold churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			db.Compact()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	if err := db.Graph().Validate(); err != nil {
		t.Fatalf("final snapshot invalid: %v", err)
	}
	ms := db.MutationStats()
	if ms.Epoch == 0 {
		t.Fatal("no mutations landed during the hammer")
	}
	t.Logf("hammer: epoch %d, %d compactions, %d live ops, |V|=%d |E|=%d",
		ms.Epoch, ms.Compactions, ms.LiveDeltaOps, db.Graph().NumNodes(), db.Graph().NumEdges())
}

// TestNewDBAcceptsOverlayView: any *Graph the library hands out —
// including the overlay view returned by Graph() after Apply — is a
// valid NewDB argument (compacted into a standalone base internally).
func TestNewDBAcceptsOverlayView(t *testing.T) {
	db := NewDB(RandomGraph(80, 200, 3, false))
	if err := db.Apply([]Op{AddNode("V"), AddEdge(NodeID(db.Graph().NumNodes()-1), 0)}); err != nil {
		t.Fatal(err)
	}
	view := db.Graph()
	if !view.HasOverlay() {
		t.Fatal("expected an overlay view after Apply")
	}
	db2 := NewDB(view)
	if db2.Graph().HasOverlay() {
		t.Fatal("NewDB kept the overlay view as its base")
	}
	if db2.Graph().NumNodes() != view.NumNodes() || db2.Graph().NumEdges() != view.NumEdges() {
		t.Fatalf("compacted base diverges: %d/%d vs %d/%d",
			db2.Graph().NumNodes(), db2.Graph().NumEdges(), view.NumNodes(), view.NumEdges())
	}
	if err := db2.Apply([]Op{AddNode("W")}); err != nil {
		t.Fatalf("mutating the re-wrapped DB: %v", err)
	}
}
