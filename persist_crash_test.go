package rbq

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rbq/internal/delta"
	"rbq/internal/store"
)

// crashWorkload is the deterministic mutation script the crash matrix
// replays under fault injection: a bootstrap graph, a fixed batch
// stream, and explicit compactions (so the base-image rewrite path sits
// inside the crash window too).
type crashWorkload struct {
	bootstrap    *Graph
	batches      [][]Op
	compactAfter map[int]bool
}

func makeCrashWorkload() *crashWorkload {
	base := RandomGraph(120, 300, 13, true)
	sh := newShadow(base)
	rng := rand.New(rand.NewSource(29))
	w := &crashWorkload{
		bootstrap:    base,
		compactAfter: map[int]bool{2: true, 5: true},
	}
	for i := 0; i < 8; i++ {
		w.batches = append(w.batches, sh.randomBatch(rng, 12))
	}
	return w
}

// run executes the workload against dir on fsys, stopping at the first
// error as a real process crash would. It reports how many batches were
// acked (Apply returned nil) and how many were submitted (Apply was
// called) — the durable state must land between the two.
func (w *crashWorkload) run(dir string, fsys store.FS) (acked, submitted int) {
	db, err := OpenDB(dir, OpenOptions{Bootstrap: w.bootstrap, fs: fsys})
	if err != nil {
		return 0, 0
	}
	defer db.Close()
	for i, ops := range w.batches {
		submitted = i + 1
		if err := db.Apply(ops); err != nil {
			return acked, submitted
		}
		acked = i + 1
		if w.compactAfter[i] {
			if err := db.Compact(); err != nil {
				return acked, submitted
			}
		}
	}
	db.Close()
	return acked, submitted
}

// TestCrashRecoveryMatrix is the durability property test: the workload
// is run under a CrashFS that dies after k filesystem events — k swept
// across the whole event range, densely around every metadata operation
// (create/rename/truncate/sync, where the protocol bugs live) and
// sampled between — and after every simulated crash the reopened DB
// must (a) open cleanly, (b) hold a state between the last acked and
// last submitted batch, (c) answer the full query matrix bit-for-bit
// like an in-memory DB at that batch, and (d) accept new writes.
func TestCrashRecoveryMatrix(t *testing.T) {
	w := makeCrashWorkload()
	q, pin := persistPattern(t, w.bootstrap, 31)

	// Reference answers per prefix: refs[s] is the matrix after batches
	// 1..s, built on plain in-memory DBs.
	sh := newShadow(w.bootstrap)
	refs := make([][]Result, len(w.batches)+1)
	refs[0] = queryMatrix(t, NewDB(w.bootstrap), q, pin, 0.05)
	for i, ops := range w.batches {
		for _, op := range ops {
			switch op.Kind {
			case delta.OpAddNode:
				sh.labels = append(sh.labels, op.Label)
			case delta.OpAddEdge:
				sh.addEdge([2]NodeID{op.From, op.To})
			case delta.OpDelEdge:
				sh.delEdge([2]NodeID{op.From, op.To})
			}
		}
		refs[i+1] = queryMatrix(t, NewDB(sh.rebuild()), q, pin, 0.05)
	}

	// Dry run in counting mode: total event count and the event index of
	// every metadata op.
	counting := store.NewCrashFS(store.OSFS, -1)
	if acked, _ := w.run(t.TempDir(), counting); acked != len(w.batches) {
		t.Fatalf("clean run acked %d/%d batches", acked, len(w.batches))
	}
	total := counting.Events()
	opEvents := counting.OpEvents()
	t.Logf("workload: %d fs events, %d metadata ops", total, len(opEvents))

	// Budget sample: ±1 around every metadata op, plus seeded uniform
	// fill across the byte-write spans between them.
	budgetSet := map[int64]bool{0: true, 1: true, total - 1: true, total: true}
	for _, e := range opEvents {
		for _, k := range []int64{e - 1, e, e + 1} {
			if k >= 0 {
				budgetSet[k] = true
			}
		}
	}
	fill := 120
	if testing.Short() {
		fill = 40
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < fill; i++ {
		budgetSet[rng.Int63n(total+1)] = true
	}
	var budgets []int64
	for k := range budgetSet {
		budgets = append(budgets, k)
	}
	sort.Slice(budgets, func(i, j int) bool { return budgets[i] < budgets[j] })

	for _, k := range budgets {
		cfs := store.NewCrashFS(store.OSFS, k)
		dir := t.TempDir()
		acked, submitted := w.run(dir, cfs)

		re, err := OpenDB(dir, OpenOptions{Bootstrap: w.bootstrap})
		if err != nil {
			t.Fatalf("budget %d (acked %d): recovery failed: %v", k, acked, err)
		}
		seq := int(re.MutationStats().Seq)
		if seq < acked || seq > submitted {
			t.Fatalf("budget %d: recovered seq %d outside [acked %d, submitted %d]",
				k, seq, acked, submitted)
		}
		if dropped := re.RecoveryStats().DroppedBatches; dropped != 0 {
			t.Fatalf("budget %d: replay dropped %d batches", k, dropped)
		}
		if got := queryMatrix(t, re, q, pin, 0.05); !reflect.DeepEqual(got, refs[seq]) {
			t.Fatalf("budget %d: recovered answers diverge from in-memory DB at batch %d", k, seq)
		}
		if err := re.Apply([]Op{AddNode("POSTCRASH")}); err != nil {
			t.Fatalf("budget %d: recovered DB rejects writes: %v", k, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("budget %d: close after recovery: %v", k, err)
		}
	}
	t.Logf("crash matrix: %d budgets survived", len(budgets))
}
