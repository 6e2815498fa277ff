package rbq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rbq/internal/gen"
	"rbq/internal/graph"
)

// persistPattern extracts a deterministic test pattern plus a pin from
// g (node ids are never deleted, so the pin stays valid under any
// mutation stream).
func persistPattern(t *testing.T, g *Graph, seed int64) (*Pattern, NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < 80; i++ {
		cand := graph.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(cand) < 2 {
			continue
		}
		if q := gen.PatternAt(g, cand, gen.PatternConfig{Nodes: 4, Edges: 6, Seed: seed + i}); q != nil {
			l := g.LabelIDOf(q.Label(q.Personalized()))
			if cands := g.NodesWithLabel(l); len(cands) > 0 {
				return q, cands[0]
			}
		}
	}
	t.Fatal("no pattern extracted")
	return nil, NoNode
}

// TestOpenDBPersistsAcrossReopen is the basic durability loop: apply,
// close, reopen, and the recovered DB answers bit-for-bit like the
// in-memory DB did — including across a compaction, so both the
// WAL-replay and base-image paths are exercised.
func TestOpenDBPersistsAcrossReopen(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			dir := t.TempDir()
			base := RandomGraph(200, 500, 11, true)
			q, pin := persistPattern(t, base, 3)

			db, err := OpenDB(dir, OpenOptions{Bootstrap: base})
			if err != nil {
				t.Fatalf("OpenDB: %v", err)
			}
			if !db.RecoveryStats().FreshDir {
				t.Fatalf("fresh dir not reported: %+v", db.RecoveryStats())
			}
			sh := newShadow(base)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 6; i++ {
				if err := db.Apply(sh.randomBatch(rng, 20)); err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
			}
			if compact {
				if err := db.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
			}
			ms := db.MutationStats()
			if !ms.Persistent || ms.Seq != 6 {
				t.Fatalf("stats: %+v", ms)
			}
			want := queryMatrix(t, db, q, pin, 0.05)
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			re, err := OpenDB(dir, OpenOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			rs := re.RecoveryStats()
			if rs.FreshDir || rs.Truncated || rs.DroppedBatches != 0 {
				t.Fatalf("reopen stats: %+v", rs)
			}
			if compact {
				if rs.BaseSeq != 6 || rs.ReplayedBatches != 0 {
					t.Fatalf("compacted reopen should load everything from the image: %+v", rs)
				}
			} else {
				if rs.BaseSeq != 0 || rs.ReplayedBatches != 6 {
					t.Fatalf("uncompacted reopen should replay the WAL: %+v", rs)
				}
			}
			if got := re.MutationStats().Seq; got != 6 {
				t.Fatalf("recovered seq = %d, want 6", got)
			}
			got := queryMatrix(t, re, q, pin, 0.05)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("recovered DB answers diverge from the pre-close DB")
			}
			if err := re.Graph().Validate(); err != nil {
				t.Fatalf("recovered graph invalid: %v", err)
			}
			// The recovered DB accepts new writes.
			if err := re.Apply([]Op{AddNode("AFTER")}); err != nil {
				t.Fatalf("apply after recovery: %v", err)
			}
		})
	}
}

// TestOpenDBEmptyBootstrap: OpenDB without a bootstrap starts an empty
// persistent graph that grows from nothing.
func TestOpenDBEmptyBootstrap(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := db.Graph().NumNodes(); n != 0 {
		t.Fatalf("empty bootstrap has %d nodes", n)
	}
	if err := db.Apply([]Op{AddNode("A"), AddNode("B"), AddEdge(0, 1)}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Graph().NumNodes() != 2 || re.Graph().NumEdges() != 1 {
		t.Fatalf("recovered %d/%d, want 2/1", re.Graph().NumNodes(), re.Graph().NumEdges())
	}
}

// TestOpenDBIgnoresBootstrapWhenNotFresh: reopening always resumes from
// disk, whatever Bootstrap says.
func TestOpenDBIgnoresBootstrapWhenNotFresh(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, OpenOptions{Bootstrap: RandomGraph(30, 60, 1, false)})
	if err != nil {
		t.Fatal(err)
	}
	n := db.Graph().NumNodes()
	db.Close()
	re, err := OpenDB(dir, OpenOptions{Bootstrap: RandomGraph(99, 200, 2, false)})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Graph().NumNodes() != n {
		t.Fatalf("reopen took the new bootstrap: %d nodes, want %d", re.Graph().NumNodes(), n)
	}
}

// TestOpenDBBootstrapFile: a fresh directory seeded from a graph file
// holds the base image a DB built in memory from the same graph would
// write, after one BuildAux; once the directory holds data the file is
// not opened again; and a file that does not decode fails the open and
// leaves the directory fresh.
func TestOpenDBBootstrapFile(t *testing.T) {
	base := RandomGraph(300, 900, 5, true)
	want := t.TempDir()
	db, err := OpenDB(want, OpenOptions{Bootstrap: base})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	wantImage, err := os.ReadFile(filepath.Join(want, "base.img"))
	if err != nil {
		t.Fatal(err)
	}

	for _, format := range []struct {
		name string
		save func(*DB, io.Writer) error
	}{{"text", (*DB).Save}, {"binary", (*DB).SaveBinary}} {
		t.Run(format.name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "seed.graph")
			var buf bytes.Buffer
			if err := format.save(NewDB(base), &buf); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if _, err := OpenDB(dir, OpenOptions{BootstrapFile: file}); err == nil {
				t.Fatal("a fresh directory opened without its seed file")
			}
			if err := os.WriteFile(file, buf.Bytes()[:buf.Len()-3], 0o644); err != nil {
				t.Fatal(err)
			}
			if db, err := OpenDB(dir, OpenOptions{BootstrapFile: file}); err == nil {
				if format.name == "binary" {
					t.Fatal("a fresh directory opened from a truncated seed file")
				}
				db.Close() // a text file cut at a line's end decodes: start over
				os.RemoveAll(dir)
			}

			if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			builds := graph.AuxBuilds()
			db, err := OpenDB(dir, OpenOptions{BootstrapFile: file})
			if err != nil {
				t.Fatal(err)
			}
			if got := graph.AuxBuilds() - builds; got != 1 {
				t.Fatalf("bootstrap ran BuildAux %d times, want 1", got)
			}
			if !db.RecoveryStats().FreshDir {
				t.Fatalf("fresh dir not reported: %+v", db.RecoveryStats())
			}
			db.Close()
			image, err := os.ReadFile(filepath.Join(dir, "base.img"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(image, wantImage) {
				t.Fatal("base image seeded from the file differs from the one seeded from the graph")
			}

			if err := os.Remove(file); err != nil {
				t.Fatal(err)
			}
			builds = graph.AuxBuilds()
			re, err := OpenDB(dir, OpenOptions{BootstrapFile: file})
			if err != nil {
				t.Fatalf("reopen with the seed file gone: %v", err)
			}
			defer re.Close()
			if got := graph.AuxBuilds() - builds; got != 0 {
				t.Fatalf("reopen ran BuildAux %d times; the image carries the Aux", got)
			}
			if re.RecoveryStats().FreshDir || re.Graph().NumNodes() != base.NumNodes() || re.Graph().NumEdges() != base.NumEdges() {
				t.Fatalf("reopen: %+v, |V|=%d |E|=%d", re.RecoveryStats(), re.Graph().NumNodes(), re.Graph().NumEdges())
			}
		})
	}
}

// TestCloseSemantics: Close stops mutations with ErrClosed, leaves
// queries answering from the last snapshot, and is idempotent. The same
// gate applies to in-memory DBs.
func TestCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	base := RandomGraph(100, 250, 2, false)
	q, pin := persistPattern(t, base, 7)
	db, err := OpenDB(dir, OpenOptions{Bootstrap: base})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Apply([]Op{AddNode("X")}); err != nil {
		t.Fatal(err)
	}
	want := queryMatrix(t, db, q, pin, 0.05)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := db.Apply([]Op{AddNode("Y")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v", err)
	}
	if err := db.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close: %v", err)
	}
	got := queryMatrix(t, db, q, pin, 0.05)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("queries diverge after Close")
	}

	mem := NewDB(base)
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Apply([]Op{AddNode("Z")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("in-memory Apply after Close: %v", err)
	}
}

// TestOpenDBTruncatesBitFlippedWALTail: flip one bit at every byte of
// the WAL's record region; OpenDB must succeed every time, recover some
// acked prefix, and answer bit-for-bit like an in-memory DB at that
// prefix — the ISSUE's corrupted-tail acceptance criterion.
func TestOpenDBTruncatesBitFlippedWALTail(t *testing.T) {
	dir := t.TempDir()
	base := RandomGraph(120, 300, 13, true)
	q, pin := persistPattern(t, base, 9)
	const batches = 4
	sh := newShadow(base)
	rng := rand.New(rand.NewSource(21))
	db, err := OpenDB(dir, OpenOptions{Bootstrap: base})
	if err != nil {
		t.Fatal(err)
	}
	// Reference answers per prefix seq: refs[s] answers after batches
	// 1..s. The shadow accumulates, so rebuild snapshots per step.
	refs := make([][]Result, batches+1)
	refs[0] = queryMatrix(t, NewDB(base), q, pin, 0.05)
	for i := 0; i < batches; i++ {
		ops := sh.randomBatch(rng, 12)
		if err := db.Apply(ops); err != nil {
			t.Fatal(err)
		}
		refs[i+1] = queryMatrix(t, NewDB(sh.rebuild()), q, pin, 0.05)
	}
	db.Close()

	walPath := filepath.Join(dir, "wal.log")
	pristine, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	const walHeader = 8
	step := 1
	if testing.Short() && len(pristine) > 120 {
		step = 3
	}
	for off := walHeader; off < len(pristine); off += step {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), pristine...)
			mut[off] ^= bit
			if err := os.WriteFile(walPath, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDB(dir, OpenOptions{})
			if err != nil {
				t.Fatalf("flip %02x at %d: OpenDB failed: %v", bit, off, err)
			}
			seq := re.MutationStats().Seq
			if seq > batches {
				t.Fatalf("flip %02x at %d: recovered seq %d beyond %d", bit, off, seq, batches)
			}
			if !re.RecoveryStats().Truncated {
				t.Fatalf("flip %02x at %d: corruption not reported", bit, off)
			}
			got := queryMatrix(t, re, q, pin, 0.05)
			if !reflect.DeepEqual(got, refs[seq]) {
				t.Fatalf("flip %02x at %d: answers diverge from prefix seq %d", bit, off, seq)
			}
			re.Close()
			if err := os.WriteFile(walPath, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestOpenDBCorruptBaseImageFails: damage to the base image is a hard,
// clearly-reported error — it is the ground truth, and recovery must
// not invent data.
func TestOpenDBCorruptBaseImageFails(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, OpenOptions{Bootstrap: RandomGraph(50, 120, 3, false)})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	path := filepath.Join(dir, "base.img")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(dir, OpenOptions{}); err == nil {
		t.Fatal("corrupt base image opened")
	}
}

// TestApplyCompactCloseRacePersistent extends TestApplyQueryCompactRace
// to a persistent DB: writers, readers and a compactor hammer the DB
// while Close lands mid-flight. Shutdown must not tear a WAL append —
// every batch is either acked (and recovered) or rejected with
// ErrClosed — and the reopened DB must hold exactly the acked batches.
// Run under -race. Runs once per compaction path (splice pins every
// compaction incremental, rebuild pins the full-rebuild reference), so
// the durability ordering holds for spliced base images too.
func TestApplyCompactCloseRacePersistent(t *testing.T) {
	for _, tc := range []struct {
		name string
		frac float64
	}{
		{"splice", 1},
		{"rebuild", 0},
	} {
		t.Run(tc.name, func(t *testing.T) { applyCompactCloseRacePersistent(t, tc.frac) })
	}
}

func applyCompactCloseRacePersistent(t *testing.T, spliceFrac float64) {
	dir := t.TempDir()
	base := RandomGraph(300, 800, 5, true)
	db, err := OpenDB(dir, OpenOptions{Bootstrap: base, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.SetCompactThreshold(64)
	db.SetCompactSpliceFraction(spliceFrac)
	q, pin := persistPattern(t, base, 17)

	hammer := 300 * time.Millisecond
	if testing.Short() {
		hammer = 120 * time.Millisecond
	}
	deadline := time.Now().Add(hammer)
	closeAt := time.Now().Add(hammer / 2)
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				g := db.Graph()
				n := g.NumNodes()
				// Exactly one node add per batch: the reopened node count
				// then counts acked batches exactly.
				ops := []Op{AddNode("RACE")}
				for i := 0; i < 4; i++ {
					if rng.Intn(3) == 0 {
						v := NodeID(rng.Intn(n))
						if out := g.Out(v); len(out) > 0 {
							ops = append(ops, DelEdge(v, out[rng.Intn(len(out))]))
							continue
						}
					}
					ops = append(ops, AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n))))
				}
				err := db.Apply(ops)
				switch {
				case err == nil:
					acked.Add(1)
				case errors.Is(err, ErrBadRequest): // writers raced on an edge
				case errors.Is(err, ErrClosed): // shutdown landed first
				default:
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}(int64(100 + w))
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				req := Request{Anchor: Pin(pin), Alpha: 0.02}
				if rng.Intn(2) == 0 {
					req = Request{Mode: Unanchored, Alpha: 0.02}
				}
				if _, err := db.Query(t.Context(), q, req); err != nil && !errors.Is(err, ErrBadRequest) {
					t.Errorf("Query: %v", err)
					return
				}
			}
		}(int64(200 + r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if err := db.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Compact: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Closer: shut down mid-hammer; writers and compactor keep running
	// into ErrClosed, readers must stay unaffected.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(closeAt))
		if err := db.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}

	re, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer re.Close()
	rs := re.RecoveryStats()
	if rs.Truncated || rs.DroppedBatches != 0 {
		t.Fatalf("clean shutdown left a damaged WAL: %+v", rs)
	}
	wantNodes := base.NumNodes() + int(acked.Load())
	if got := re.Graph().NumNodes(); got != wantNodes {
		t.Fatalf("recovered %d nodes, want %d (bootstrap %d + %d acked batches)",
			got, wantNodes, base.NumNodes(), acked.Load())
	}
	if err := re.Graph().Validate(); err != nil {
		t.Fatalf("recovered graph invalid: %v", err)
	}
	if got := re.MutationStats().Seq; got != uint64(acked.Load()) {
		t.Fatalf("recovered seq %d, want %d", got, acked.Load())
	}
}

// TestIncrementalCompactBaseImageIdentical: the CSR splicer produces
// arrays bit-identical to a full Builder rebuild, so the persisted base
// image — which serializes exactly those arrays — must be byte-for-byte
// the same file whichever compaction path produced it.
func TestIncrementalCompactBaseImageIdentical(t *testing.T) {
	base := RandomGraph(200, 600, 7, true)
	sh := newShadow(base)
	ops := sh.randomBatch(rand.New(rand.NewSource(23)), 40)

	images := make(map[string][]byte)
	for _, tc := range []struct {
		name string
		frac float64
		mode CompactMode
	}{
		{"splice", 1, CompactModeIncremental},
		{"rebuild", 0, CompactModeFull},
	} {
		dir := t.TempDir()
		db, err := OpenDB(dir, OpenOptions{Bootstrap: base})
		if err != nil {
			t.Fatal(err)
		}
		db.SetCompactSpliceFraction(tc.frac)
		if err := db.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if ms := db.MutationStats(); ms.Mode != tc.mode {
			t.Fatalf("%s path took the wrong mode: %+v", tc.name, ms)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "base.img"))
		if err != nil {
			t.Fatal(err)
		}
		images[tc.name] = data
	}
	if !bytes.Equal(images["splice"], images["rebuild"]) {
		t.Fatalf("base images diverge: spliced %d bytes, rebuilt %d bytes",
			len(images["splice"]), len(images["rebuild"]))
	}
}
