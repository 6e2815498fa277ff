package rbq

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// parallelFixture builds a DB over a generated graph plus a pattern
// whose personalized label is NOT unique — so Unanchored mode is
// meaningful and the anchored modes pin explicitly.
func parallelFixture(t *testing.T, seed int64) (*DB, *Pattern, []NodeID) {
	t.Helper()
	g := gen.Random(gen.GraphConfig{Nodes: 1200, Edges: 3600, Seed: seed, PowerLaw: true})
	q := gen.PatternAt(g, graph.NodeID(37*seed%700), gen.PatternConfig{Nodes: 4, Edges: 6, Seed: seed})
	if q == nil {
		t.Fatal("no pattern")
	}
	l := g.LabelIDOf(q.Label(q.Personalized()))
	pins := g.NodesWithLabel(l)
	if len(pins) < 4 {
		t.Fatalf("only %d pins", len(pins))
	}
	return NewDB(g), q, pins
}

// The facade-level property test: for every semantics × mode, the same
// requests issued from several goroutines at once — both query classes
// interleaved, so pooled scratch passes between them — must answer
// bit-for-bit as they do one at a time, with and without a live overlay
// delta sitting on the snapshot.
func TestParallelQueryBitForBitEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ctx := context.Background()
	for _, seed := range []int64{3, 8} {
		db, q, pins := parallelFixture(t, seed)
		db.SetCompactThreshold(1 << 30) // keep the overlay live once applied
		for _, overlay := range []bool{false, true} {
			if overlay {
				// A live delta: new nodes and edges layered over the base,
				// not compacted, so queries run through the overlay graph.
				ops := []Op{AddNode(db.Graph().Label(pins[0]))}
				for i := 0; i < 8; i++ {
					ops = append(ops, AddEdge(pins[i%len(pins)], NodeID(i*13%db.Graph().NumNodes())))
				}
				if err := db.Apply(ops); err != nil {
					t.Fatalf("Apply: %v", err)
				}
				if db.MutationStats().LiveDeltaOps == 0 {
					t.Fatal("overlay did not stay live")
				}
			}
			reqs := map[string]Request{
				"sim/bounded":     {Alpha: 0.05, Anchor: Pin(pins[0])},
				"sim/exact":       {Mode: Exact, Anchor: Pin(pins[1])},
				"sim/unanchored":  {Mode: Unanchored, Alpha: 0.05},
				"sub/bounded":     {Semantics: Subgraph, Alpha: 0.05, Anchor: Pin(pins[0])},
				"sub/exact":       {Semantics: Subgraph, Mode: Exact, MaxSteps: 5000, Anchor: Pin(pins[1])},
				"sub/unanchored":  {Semantics: Subgraph, Mode: Unanchored, Alpha: 0.05, MaxSteps: 2000},
				"sim/unanch-wide": {Mode: Unanchored, Alpha: 0.2},
			}
			want := map[string]Result{}
			for name, req := range reqs {
				res, err := db.Query(ctx, q, req)
				if err != nil {
					t.Fatalf("%s serial: %v", name, err)
				}
				want[name] = res
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 3; rep++ {
						for name, req := range reqs {
							got, err := db.Query(ctx, q, req)
							if err != nil {
								t.Errorf("%s worker %d: %v", name, w, err)
								return
							}
							if !reflect.DeepEqual(got, want[name]) {
								t.Errorf("seed=%d overlay=%v %s worker %d:\n got %+v\nwant %+v",
									seed, overlay, name, w, got, want[name])
							}
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// QueryBatch sharded across workers must equal the one-worker batch,
// result slot for result slot, in bounded and in exact mode under both
// semantics. Exact items run the MatchOpt/VF2Opt baselines on the
// package-pooled region scratch, and a batch is the one place exact
// evaluations run concurrently, so under -race this is the scratch's
// sharing check.
func TestQueryBatchShardedEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ctx := context.Background()
	db, q, pins := parallelFixture(t, 5)
	var qs []AnchoredQuery
	for i := 0; i < 64; i++ {
		qs = append(qs, AnchoredQuery{Q: q, At: pins[i%len(pins)]})
	}
	for _, req := range []Request{
		{Alpha: 0.03},
		{Mode: Exact},
		{Semantics: Subgraph, Mode: Exact, MaxSteps: 100_000},
	} {
		want, err := db.QueryBatch(ctx, qs, req, 1)
		if err != nil {
			t.Fatalf("%+v serial batch: %v", req, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := db.QueryBatch(ctx, qs, req, workers)
			if err != nil {
				t.Fatalf("%+v W=%d: %v", req, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: DB.QueryBatch W=%d diverges from serial", req, workers)
			}
		}
	}
}

// The race hammer: concurrent queries and sharded batches racing Apply,
// Compact and Close on a persistent DB. Run under -race in CI (the
// -short suite includes it); correctness assertions are deliberately
// weak — the test exists to give the race detector interleavings.
func TestParallelRaceHammer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	g := gen.Random(gen.GraphConfig{Nodes: 400, Edges: 1200, Seed: 21, PowerLaw: true})
	q := gen.PatternAt(g, 50, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: 2})
	if q == nil {
		t.Fatal("no pattern")
	}
	db, err := OpenDB(t.TempDir(), OpenOptions{Bootstrap: g})
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	db.SetCompactThreshold(64)
	l := g.LabelIDOf(q.Label(q.Personalized()))
	pins := g.NodesWithLabel(l)
	if len(pins) == 0 {
		t.Fatal("no pins")
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() { // concurrent unanchored queries
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(ctx, q, Request{Mode: Unanchored, Alpha: 0.05}); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // sharded batches
		defer wg.Done()
		qs := make([]AnchoredQuery, 16)
		for i := range qs {
			qs[i] = AnchoredQuery{Q: q, At: pins[i%len(pins)]}
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.QueryBatch(ctx, qs, Request{Alpha: 0.05}, 4); err != nil {
				t.Errorf("QueryBatch: %v", err)
				return
			}
		}
	}()
	// The mutator's ops are valid by construction, however many steps it
	// gets through before Close: step 2k adds an edge absent from the
	// fixture and step 2k+1 deletes it again, so the graph is back at its
	// base state before the next fresh edge is drawn.
	var fresh [][2]NodeID
	for i := 0; len(fresh) < 64; i++ {
		from, to := pins[i%len(pins)], NodeID(i%g.NumNodes())
		if from != to && !g.HasEdge(from, to) {
			fresh = append(fresh, [2]NodeID{from, to})
		}
	}
	wg.Add(1)
	go func() { // mutator: Apply churns, Compact races the readers
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := fresh[i/2%len(fresh)]
			op := AddEdge(e[0], e[1])
			if i%2 == 1 {
				op = DelEdge(e[0], e[1])
			}
			err := db.Apply([]Op{op})
			if err == nil && i%7 == 0 {
				err = db.Compact()
			}
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("mutate: %v", err)
				return
			}
		}
	}()
	time.Sleep(150 * time.Millisecond)
	// Close mid-flight: queries keep answering from the last published
	// snapshot; mutations start failing with ErrClosed.
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// Cancellation of concurrent queries: a pre-canceled context returns
// ctx.Err() with a zero Result (no anchor runs), and a context canceled
// mid-flight surfaces promptly in every goroutine that shares it. The
// quantitative bound — ≤ one interrupt stride inside an engine run — is
// pinned by the engine tests; this covers the request-layer wiring end
// to end.
func TestParallelQueryCancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	db, q, _ := parallelFixture(t, 13)
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := db.Query(pre, q, Request{Mode: Unanchored, Alpha: 1.0})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(res, Result{}) {
		t.Fatalf("pre-canceled: non-zero result %+v", res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := db.Query(ctx, q, Request{Mode: Unanchored, Alpha: 1.0})
			// The tiny deadline may or may not fire before the query ends;
			// if it fired, the error must be the context's.
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("worker %d: err = %v, want nil or DeadlineExceeded", w, err)
			}
		}()
	}
	wg.Wait()
}
