package rbq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"rbq/internal/bounded"
	"rbq/internal/delta"
	"rbq/internal/plan"
	"rbq/internal/rbany"
	"rbq/internal/reduce"
	"rbq/internal/subiso"
)

// indexSizes returns the plan cache's entry count and its longest key,
// after checking that the LRU and the key map agree. The key map is all
// the text index is, so these two numbers bound what it retains.
func indexSizes(t *testing.T, c *planCache) (entries, longest int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll.Len() != len(c.m) {
		t.Fatalf("LRU holds %d entries, the key map %d", c.ll.Len(), len(c.m))
	}
	for key := range c.m {
		longest = max(longest, len(key))
	}
	return c.ll.Len(), longest
}

// TestParsePatternTextIndex: DB.ParsePattern returns the cached entry's
// *Pattern for the canonical text without parsing and for any other
// spelling after parsing it; a template's first sight is not retained;
// eviction ends the sharing.
func TestParsePatternTextIndex(t *testing.T) {
	db, qs := preparedFixture(t, 1000)
	ctx := context.Background()
	canonical := qs[0].Q.String()
	raw := "# sent by a client that formats its own way\n" + strings.ReplaceAll(canonical, "\n", "  \n")

	first, err := db.ParsePattern(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := db.ParsePattern(canonical); again == first {
		t.Fatal("an uncompiled template was retained: two first sights share a pointer")
	}
	if n, _ := indexSizes(t, db.plans); n != 0 {
		t.Fatalf("parsing alone put %d entries in the plan cache", n)
	}
	if _, err := db.Query(ctx, first, Request{Alpha: 0.01, Anchor: Pin(qs[0].At)}); err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats()
	for i, text := range []string{canonical, raw, raw, canonical} {
		q, err := db.ParsePattern(text)
		if err != nil {
			t.Fatal(err)
		}
		if q != first {
			t.Fatalf("sight %d returned a fresh *Pattern for a cached template", i)
		}
	}
	if after := db.PlanCacheStats(); after != before {
		t.Fatalf("ParsePattern moved the plan cache's counters: %+v → %+v", before, after)
	}
	if n, longest := indexSizes(t, db.plans); n != 1 || longest != len(canonical) {
		t.Fatalf("%d entries, longest key %d: the raw spelling was retained", n, longest)
	}

	// A bad text is an error whether or not anything is cached.
	if _, err := db.ParsePattern("node 0 A*!\nedge 0 1x\n"); err == nil {
		t.Fatal("a malformed text parsed")
	}

	// An evicted template is parsed afresh.
	db.SetPlanCacheCapacity(1)
	if _, err := db.Query(ctx, qs[1].Q, Request{Alpha: 0.01, Anchor: Pin(qs[1].At)}); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{canonical, raw} {
		if q, _ := db.ParsePattern(text); q == first {
			t.Fatal("an evicted template is still served from the index")
		}
	}
	if q, _ := db.ParsePattern(qs[1].Q.String()); q != qs[1].Q {
		t.Fatal("the template that replaced it is not served from the index")
	}
	if _, err := db.Query(ctx, first, Request{Alpha: 0.01, Anchor: Pin(qs[0].At)}); err != nil {
		t.Fatal(err)
	}
	if q, _ := db.ParsePattern(qs[1].Q.String()); q == qs[1].Q {
		t.Fatal("a template evicted in turn is still served from the index")
	}
}

// TestTextIndexBoundedUnderHostileKeys: the texts are whatever a client
// sends. Ten thousand distinct templates, ten thousand distinct spellings
// of one template and a 1 MiB text leave the cache at its capacity and
// holding canonical keys only — no text a client padded.
func TestTextIndexBoundedUnderHostileKeys(t *testing.T) {
	db, qs := preparedFixture(t, 1000)
	ctx := context.Background()
	const capacity = 16
	db.SetPlanCacheCapacity(capacity)
	label := qs[0].Q.Label(0)
	canonical := qs[0].Q.String()
	maxKey := len(canonical)

	// Distinct templates, each compiled and each then sent twice more in
	// a raw spelling of its own.
	for i := 0; i < 10_000; i++ {
		text := fmt.Sprintf("node 0 %s*\nnode 1 L%d!\nedge 0 1\n", label, i)
		q, err := db.ParsePattern(text)
		if err != nil {
			t.Fatal(err)
		}
		maxKey = max(maxKey, len(q.String()))
		// The labels do not exist: the query compiles, caches and finds nothing.
		if _, err := db.Query(ctx, q, Request{Mode: Unanchored, Alpha: 0.01}); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := db.ParsePattern("# " + fmt.Sprint(i) + "\n" + text); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, longest := indexSizes(t, db.plans); n != capacity || longest > maxKey {
		t.Fatalf("distinct templates: %d entries, longest key %d", n, longest)
	}

	// One cached template under ten thousand spellings.
	if _, err := db.Query(ctx, qs[0].Q, Request{Alpha: 0.01, Anchor: Pin(qs[0].At)}); err != nil {
		t.Fatal(err)
	}
	cached, _ := db.ParsePattern(canonical)
	for i := 0; i < 10_000; i++ {
		q, err := db.ParsePattern(fmt.Sprintf("# spelling %d\n%s", i, canonical))
		if err != nil || q != cached {
			t.Fatalf("spelling %d: %v, cached pointer %v", i, err, q == cached)
		}
	}
	if n, longest := indexSizes(t, db.plans); n != capacity || longest > maxKey {
		t.Fatalf("many spellings: %d entries, longest key %d", n, longest)
	}

	// A 1 MiB text parses to the cached template and is not kept.
	huge := "#" + strings.Repeat("x", 1<<20) + "\n" + canonical
	for range 2 {
		q, err := db.ParsePattern(huge)
		if err != nil || q != cached {
			t.Fatalf("1 MiB text: %v, cached pointer %v", err, q == cached)
		}
	}
	if n, longest := indexSizes(t, db.plans); n != capacity || longest > maxKey {
		t.Fatalf("1 MiB text: %d entries, longest key %d", n, longest)
	}
}

// cachePropertyGraph is a random graph over labels A–D with one P node
// (the personalized label of cachePropertyPatterns, unique until a tape
// adds another), two R nodes, and planted P→A→R, P→R motifs.
func cachePropertyGraph(rng *rand.Rand) *Graph {
	const n = 300
	b := NewGraphBuilder(n+3, 4*n)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('A' + rng.Intn(4))))
	}
	p, r1, r2 := b.AddNode("P"), b.AddNode("R"), b.AddNode("R")
	a1, a2 := b.AddNode("A"), b.AddNode("A")
	for _, e := range [][2]NodeID{{p, a1}, {a1, r1}, {p, r1}, {p, a2}, {a2, r2}} {
		b.AddEdge(e[0], e[1])
	}
	for i := 0; i < 3*n; i++ {
		b.AddEdge(NodeID(rng.Intn(n+5)), NodeID(rng.Intn(n+5)))
	}
	return b.Build()
}

// cachePropertyPatterns: the first is personalized at the unique P and
// anchors at P until enough P nodes are added to make R the rarest; the
// second names Z, which no node carries until a tape adds one, and then
// anchors at Z until Z is no rarer than R.
var cachePropertyPatterns = []string{
	"node 0 P*\nnode 1 A\nnode 2 R!\nedge 0 1\nedge 1 2\nedge 0 2\n",
	"node 0 A*\nnode 1 R\nnode 2 Z!\nedge 0 1\nedge 1 2\n",
}

// freshAnswer evaluates req against snap through a plan compiled afresh
// on that snapshot's Aux, calling the plan's engines directly. anchor is
// the query node an Unanchored evaluation rooted at (-1 otherwise).
func freshAnswer(snap *delta.Snapshot, q *Pattern, req Request) (res Result, anchor int, err error) {
	aux := snap.Aux()
	pl, err := plan.New(aux, q)
	if err != nil {
		return Result{}, -1, err
	}
	class := bounded.Class(req.Semantics)
	var mopts *subiso.Options
	if req.MaxSteps > 0 {
		mopts = &subiso.Options{MaxSteps: req.MaxSteps}
	}
	if req.Mode == Unanchored {
		r := pl.Unanchored(aux, class, rbany.Options{Alpha: req.Alpha}, mopts)
		return Result{Matches: r.Matches, Visited: r.Visited, FragmentSize: r.FragmentSize,
			Candidates: r.Candidates, Evaluated: r.Evaluated}, int(r.Anchor), nil
	}
	vp, ok := pl.Personalized(aux)
	if req.Anchor != nil {
		vp = *req.Anchor
		if err := pl.CheckPin(aux, vp); err != nil {
			return Result{}, -1, err
		}
	} else if !ok {
		return Result{}, -1, errors.New("no unique personalized match")
	}
	if req.Mode == Exact {
		m, _ := pl.Exact(aux, class, vp, nil, req.MaxSteps)
		return Result{Matches: m}, -1, nil
	}
	r := pl.Bounded(aux, class, vp, reduce.Options{Alpha: req.Alpha}, mopts)
	return Result{Matches: r.Matches, Visited: r.Stats.Visited, FragmentSize: r.Stats.FragmentSize}, -1, nil
}

// TestCachedPlanEqualsFreshCompile: plans survive Apply and compaction,
// so at every epoch of a random op tape, every Semantics × Mode DB.Query
// — a plan-cache hit unless the alphabet just grew — must equal a plan
// compiled afresh on that snapshot's Aux and run directly. The tape makes
// the unique personalized match ambiguous, switches both patterns'
// unanchored anchors, grows the alphabet, deletes edges and compacts down
// both paths; a growth costs each template exactly one recompile.
func TestCachedPlanEqualsFreshCompile(t *testing.T) {
	steps := 48
	if testing.Short() {
		steps = 24
	}
	rng := rand.New(rand.NewSource(5))
	db := NewDB(cachePropertyGraph(rng))
	var pats []*Pattern
	for _, text := range cachePropertyPatterns {
		q, err := ParsePattern(text)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, q)
	}
	// Each step's event: the mandatory ones at fixed steps, random
	// edge churn elsewhere.
	events := map[int]string{
		2: "add P", 5: "add Z", 8: "add P", 11: "compact 1", 13: "add Z",
		15: "add P", 17: "grow", 19: "compact 0", 21: "add Z", 23: "compact 1",
	}
	ctx := context.Background()
	anchors := make([]map[int]bool, len(pats))
	for i := range anchors {
		anchors[i] = map[int]bool{}
	}
	var uniqueSeen, ambiguousSeen bool
	queries, growths := 0, 0
	for step := 0; step < steps; step++ {
		g := db.Graph()
		labelsBefore := g.NumLabels()
		var ops []Op
		switch ev := events[step]; ev {
		case "add P", "add Z":
			v := NodeID(g.NumNodes())
			ops = []Op{AddNode(ev[len(ev)-1:]), AddEdge(g.NodesWithLabel(g.LabelIDOf("R"))[0], v)}
		case "grow":
			ops = []Op{AddNode(fmt.Sprintf("NEW%d", step))}
		case "compact 0", "compact 1":
			db.SetCompactSpliceFraction(float64(ev[len(ev)-1] - '0'))
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		default:
			for len(ops) < 4 {
				v := NodeID(rng.Intn(g.NumNodes()))
				if out := g.Out(v); len(ops)%2 == 0 && len(out) > 0 {
					ops = append(ops, DelEdge(v, out[rng.Intn(len(out))]))
					continue
				}
				if w := NodeID(rng.Intn(g.NumNodes())); !g.HasEdge(v, w) {
					ops = append(ops, AddEdge(v, w))
				}
			}
			// Apply validates in batch order: one op per endpoint pair.
			ops = uniqueEdgeOps(ops)
		}
		if len(ops) > 0 {
			if err := db.Apply(ops); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if db.Graph().NumLabels() > labelsBefore {
			growths++
		}

		snap := db.snapshot()
		g = snap.Graph()
		for pi, q := range pats {
			pins := g.NodesWithLabel(g.LabelIDOf(q.Label(q.Personalized())))
			pin := pins[rng.Intn(len(pins))]
			for _, sem := range []Semantics{Simulation, Subgraph} {
				var maxSteps int64
				if sem == Subgraph {
					maxSteps = 200_000
				}
				for _, req := range []Request{
					{Semantics: sem, Mode: Bounded, Anchor: &pin, Alpha: 0.05, MaxSteps: maxSteps},
					{Semantics: sem, Mode: Bounded, Alpha: 0.05, MaxSteps: maxSteps},
					{Semantics: sem, Mode: Exact, Anchor: &pin, MaxSteps: maxSteps},
					{Semantics: sem, Mode: Unanchored, Alpha: 0.05, MaxSteps: maxSteps},
				} {
					got, gerr := db.Query(ctx, q, req)
					queries++
					want, anchor, werr := freshAnswer(snap, q, req)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("step %d pattern %d %+v: cached error %v, fresh error %v", step, pi, req, gerr, werr)
					}
					if pi == 0 && req.Mode == Bounded && req.Anchor == nil {
						uniqueSeen = uniqueSeen || werr == nil
						ambiguousSeen = ambiguousSeen || werr != nil
					}
					if anchor >= 0 {
						anchors[pi][anchor] = true
					}
					got = Result{Matches: got.Matches, Visited: got.Visited, FragmentSize: got.FragmentSize,
						Candidates: got.Candidates, Evaluated: got.Evaluated}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d pattern %d %+v:\ncached %+v\nfresh  %+v", step, pi, req, got, want)
					}
				}
			}
		}
	}
	if !uniqueSeen || !ambiguousSeen {
		t.Fatalf("the tape never took the personalized match from unique to ambiguous (unique %v, ambiguous %v)", uniqueSeen, ambiguousSeen)
	}
	for pi, seen := range anchors {
		if len(seen) < 2 {
			t.Fatalf("pattern %d always anchored at %v: the tape never switched its anchor", pi, seen)
		}
	}
	cs := db.PlanCacheStats()
	wantMisses := uint64(len(pats) * (1 + growths))
	if cs.Invalidations != uint64(len(pats)*growths) || cs.Misses != wantMisses || cs.Hits != uint64(queries)-wantMisses {
		t.Fatalf("%d queries over %d alphabet growths: %+v, want %d misses, %d of them invalidations",
			queries, growths, cs, wantMisses, len(pats)*growths)
	}
}

// uniqueEdgeOps drops edge ops on a pair an earlier op of the batch
// already touched, so a random batch stays valid in order.
func uniqueEdgeOps(ops []Op) []Op {
	seen := map[[2]NodeID]bool{}
	out := ops[:0]
	for _, op := range ops {
		e := [2]NodeID{op.From, op.To}
		if !seen[e] {
			seen[e] = true
			out = append(out, op)
		}
	}
	return out
}

// TestCompactionReleasesReplacedBase: cached plans hold no snapshot, so
// after a compaction the replaced base graph and its Aux become
// unreachable while the cache keeps its entries — and the next query of
// the template still hits.
func TestCompactionReleasesReplacedBase(t *testing.T) {
	db := NewDB(RandomGraph(2000, 6000, 4, false))
	q, err := ParsePattern("node 0 L00*\nnode 1 L01!\nedge 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pin := db.Graph().NodesWithLabel(db.Graph().LabelIDOf("L00"))[0]
	for _, req := range []Request{{Anchor: &pin, Alpha: 0.05}, {Mode: Unanchored, Alpha: 0.05}, {Mode: Exact, Anchor: &pin}} {
		if _, err := db.Query(ctx, q, req); err != nil {
			t.Fatal(err)
		}
	}
	base, baseAux := weak.Make(db.Graph()), weak.Make(db.snapshot().Aux())
	if err := db.Apply([]Op{AddNode("L00")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Two cycles: a sync.Pool embedded in the old graph (its traversal
	// pool) stays registered with the runtime until the second GC after
	// its last use.
	runtime.GC()
	runtime.GC()
	if base.Value() != nil || baseAux.Value() != nil {
		t.Fatalf("the replaced base is still reachable (graph %v, aux %v)", base.Value() != nil, baseAux.Value() != nil)
	}
	if cs := db.PlanCacheStats(); cs.Size != 1 {
		t.Fatalf("compaction emptied the plan cache: %+v", cs)
	}
	if _, err := db.Query(ctx, q, Request{Anchor: &pin, Alpha: 0.05}); err != nil {
		t.Fatal(err)
	}
	if cs := db.PlanCacheStats(); cs.Hits != 3 || cs.Misses != 1 {
		t.Fatalf("the query after compaction did not hit: %+v", cs)
	}
}
