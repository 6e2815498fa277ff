package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rbq/internal/dataset"
	"rbq/internal/delta"
	"rbq/internal/graph"
)

func testGraph() (*graph.Graph, *graph.Aux) {
	g := graph.FromEdges([]string{"A", "B", "C", "A"}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	return g, graph.BuildAux(g)
}

func batchN(i int) []delta.Op {
	return []delta.Op{
		delta.AddNode("N"),
		delta.AddEdge(0, graph.NodeID(4+i)),
	}
}

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestFreshOpenAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if !s.Stats().FreshDir {
		t.Fatal("fresh dir not reported fresh")
	}
	if g, seq := s.Base(); g != nil || seq != 0 {
		t.Fatal("fresh dir has a base")
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(uint64(i+1), batchN(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	st := s2.Stats()
	if st.FreshDir || st.Truncated || st.SkippedRecords != 0 {
		t.Fatalf("unexpected stats after clean reopen: %+v", st)
	}
	tail := s2.Tail()
	if len(tail) != 3 {
		t.Fatalf("tail: got %d batches, want 3", len(tail))
	}
	for i, b := range tail {
		if b.Seq != uint64(i+1) {
			t.Fatalf("tail[%d].Seq = %d", i, b.Seq)
		}
		want := batchN(i)
		if len(b.Ops) != len(want) {
			t.Fatalf("tail[%d]: %d ops, want %d", i, len(b.Ops), len(want))
		}
		for j := range want {
			if b.Ops[j] != want[j] {
				t.Fatalf("tail[%d].Ops[%d] = %v, want %v", i, j, b.Ops[j], want[j])
			}
		}
	}
	if s2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", s2.LastSeq())
	}
}

func TestAppendSeqDiscipline(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	defer s.Close()
	if err := s.Append(2, batchN(0)); err == nil {
		t.Fatal("append with a seq gap accepted")
	}
	// The misuse poisoned the store.
	if err := s.Append(1, batchN(0)); err == nil {
		t.Fatal("poisoned store accepted an append")
	}
}

func TestWriteBaseTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	g, aux := testGraph()
	s := openT(t, dir, Options{})
	ops := []delta.Op{delta.AddNode("X")}
	if err := s.Append(1, ops); err != nil {
		t.Fatal(err)
	}
	// Pretend the facade folded batch 1 into g (the store does not
	// inspect image contents, only the protocol).
	if err := s.WriteBase(g, aux, 1); err != nil {
		t.Fatalf("WriteBase: %v", err)
	}
	if err := s.Append(2, ops); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	bg, seq := s2.Base()
	if bg == nil || seq != 1 {
		t.Fatalf("base seq = %d (nil=%v), want 1", seq, bg == nil)
	}
	if bg.NumNodes() != g.NumNodes() || bg.NumEdges() != g.NumEdges() {
		t.Fatal("base image does not match the written graph")
	}
	tail := s2.Tail()
	if len(tail) != 1 || tail[0].Seq != 2 {
		t.Fatalf("tail after compaction: %+v", tail)
	}
	if s2.Stats().SkippedRecords != 0 {
		t.Fatal("clean compaction left skipped records")
	}
}

// TestReplaySkipsFoldedRecords covers the crash window between the base
// rename and the WAL swap: the new base coexists with the old WAL, and
// replay must skip the records the base already folds.
func TestReplaySkipsFoldedRecords(t *testing.T) {
	dir := t.TempDir()
	g, aux := testGraph()
	s := openT(t, dir, Options{})
	ops := []delta.Op{delta.AddNode("X")}
	for i := 1; i <= 3; i++ {
		if err := s.Append(uint64(i), ops); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Reconstruct the crash state: write a base at seq 2 by hand while
	// the WAL still holds 1..3.
	walBefore, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	s = openT(t, dir, Options{})
	if err := s.Append(4, ops); err != nil { // keep seqs moving to 4 first
		t.Fatal(err)
	}
	if err := s.WriteBase(g, aux, 4); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Overwrite wal.log with the pre-compaction bytes: base seq 4 + WAL 1..3.
	if err := os.WriteFile(filepath.Join(dir, walName), walBefore, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	defer s2.Close()
	st := s2.Stats()
	if st.SkippedRecords != 3 {
		t.Fatalf("SkippedRecords = %d, want 3", st.SkippedRecords)
	}
	if len(s2.Tail()) != 0 {
		t.Fatalf("tail = %+v, want empty", s2.Tail())
	}
	if s2.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4", s2.LastSeq())
	}
	// The store must accept new appends at seq 5 even though the WAL
	// file ends at seq 3.
	if err := s2.Append(5, ops); err != nil {
		t.Fatalf("append after skip-recovery: %v", err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for cut := 1; cut <= 8; cut++ {
		dir := t.TempDir()
		s := openT(t, dir, Options{})
		ops := []delta.Op{delta.AddNode("X")}
		for i := 1; i <= 2; i++ {
			if err := s.Append(uint64(i), ops); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		path := filepath.Join(dir, walName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openT(t, dir, Options{})
		st := s2.Stats()
		if !st.Truncated || st.DroppedBytes == 0 {
			t.Fatalf("cut %d: torn tail not reported: %+v", cut, st)
		}
		if len(s2.Tail()) != 1 || s2.Tail()[0].Seq != 1 {
			t.Fatalf("cut %d: tail = %+v, want seq 1 only", cut, s2.Tail())
		}
		// The repaired WAL accepts the next append and reopens clean.
		if err := s2.Append(2, ops); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3 := openT(t, dir, Options{})
		if s3.Stats().Truncated || len(s3.Tail()) != 2 {
			t.Fatalf("cut %d: reopen after repair: %+v", cut, s3.Stats())
		}
		s3.Close()
	}
}

func TestBitFlipTruncatesAtDamage(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	ops := []delta.Op{delta.AddNode("X")}
	for i := 1; i <= 4; i++ {
		if err := s.Append(uint64(i), ops); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, walName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := (len(pristine) - walHeaderLen) / 4
	for off := walHeaderLen; off < len(pristine); off++ {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("flip at %d: open failed: %v", off, err)
		}
		// The flip lands in record k; everything before must survive and
		// everything from k on must be dropped.
		k := (off - walHeaderLen) / recLen
		if got := len(s2.Tail()); got != k {
			t.Fatalf("flip at %d (record %d): %d tail batches survive", off, k, got)
		}
		if !s2.Stats().Truncated {
			t.Fatalf("flip at %d: truncation not reported", off)
		}
		s2.Close()
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// multiLabelGraph has some structure worth a round trip: cycles,
// isolated nodes (6 and 7), label skew.
func multiLabelGraph() *graph.Graph {
	labels := []string{"A", "B", "C", "A", "B", "A", "D", "A"}
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 0}, {1, 4}, {5, 0}, {5, 1}, {5, 2}}
	return graph.FromEdges(labels, edges)
}

// requireSameGraph checks got against want array for array — label
// table, node labels, out- and in-lists, label index, max degree — and
// BuildAux of each, histogram for histogram and list for list.
func requireSameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() ||
		got.NumLabels() != want.NumLabels() || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("shape: got |V|=%d |E|=%d %d labels max degree %d, want %d %d %d %d",
			got.NumNodes(), got.NumEdges(), got.NumLabels(), got.MaxDegree(),
			want.NumNodes(), want.NumEdges(), want.NumLabels(), want.MaxDegree())
	}
	for l := range graph.LabelID(want.NumLabels()) {
		if got.LabelName(l) != want.LabelName(l) || !slices.Equal(got.NodesWithLabel(l), want.NodesWithLabel(l)) {
			t.Fatalf("label %d: got %q, want %q, or its nodes differ", l, got.LabelName(l), want.LabelName(l))
		}
	}
	for v := range graph.NodeID(want.NumNodes()) {
		if got.LabelOf(v) != want.LabelOf(v) || !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) {
			t.Fatalf("node %d: label or adjacency differs", v)
		}
	}
	gh, wh := graph.BuildAux(got).BaseHists(), graph.BuildAux(want).BaseHists()
	for i, pair := range [][2][]int32{{gh.OutStart, wh.OutStart}, {gh.InStart, wh.InStart}, {gh.AdjOutStart, wh.AdjOutStart}, {gh.AdjInStart, wh.AdjInStart}} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("aux offset array %d differs", i)
		}
	}
	if !slices.Equal(gh.OutHist, wh.OutHist) || !slices.Equal(gh.InHist, wh.InHist) {
		t.Fatal("aux histograms differ")
	}
	if !slices.Equal(gh.AdjOut, wh.AdjOut) || !slices.Equal(gh.AdjIn, wh.AdjIn) || !slices.Equal(gh.Mask, wh.Mask) {
		t.Fatal("adjacency arrays or aux masks differ")
	}
}

// writeBase writes g as the base image of a fresh store in dir and
// returns the file's bytes.
func writeBase(t *testing.T, dir string, g *graph.Graph) []byte {
	t.Helper()
	s := openT(t, dir, Options{})
	if err := s.WriteBase(g, nil, 0); err != nil {
		t.Fatalf("WriteBase: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, baseName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBaseRoundTrip: Open recovers the graph WriteBase wrote, equal to
// it array for array, and an overlay view writes the same image as its
// compaction.
func TestBaseRoundTrip(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"empty":       graph.NewBuilder(0, 0).Build(),
		"multi-label": multiLabelGraph(),
		"youtube":     dataset.YoutubeLike(2000, 1),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeBase(t, dir, g)
			s := openT(t, dir, Options{})
			defer s.Close()
			got, seq := s.Base()
			if got == nil || seq != 0 {
				t.Fatalf("base seq %d (nil=%v), want a base at 0", seq, got == nil)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("recovered graph fails Validate: %v", err)
			}
			requireSameGraph(t, got, g)
		})
	}
	t.Run("overlay", func(t *testing.T) {
		view, err := multiLabelGraph().WithOverlay(graph.OverlayDelta{
			NewNodeLabels: []string{"E", "A"},
			AddEdges:      [][2]graph.NodeID{{2, 5}, {8, 0}, {7, 9}},
			DelEdges:      [][2]graph.NodeID{{0, 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(writeBase(t, t.TempDir(), view), writeBase(t, t.TempDir(), view.Compact())) {
			t.Fatal("an overlay view and its Compact() wrote different base images")
		}
	})
}

func TestBaseImageDamageIsHardError(t *testing.T) {
	dir := t.TempDir()
	g, _ := testGraph()
	pristine := writeBase(t, dir, g)
	path := filepath.Join(dir, baseName)
	damage := map[string][]byte{}
	labelTable := basePrologueLen + 12 // magic, label count, first name's length
	lastEdge := len(pristine) - 4 - 8
	for name, off := range map[string]int{
		"magic": 0, "version": 5, "seq": 10, "prologue crc": 17, "graph magic": basePrologueLen + 3,
		"label table": labelTable, "edge": lastEdge + 5, "crc trailer": len(pristine) - 1,
	} {
		mut := bytes.Clone(pristine)
		mut[off] ^= 0x01
		damage["flip in "+name] = mut
	}
	damage["cut by 1 byte"] = pristine[:len(pristine)-1]
	damage["cut to the prologue"] = pristine[:basePrologueLen]
	for name, mut := range damage {
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatalf("%s: corrupt base image opened", name)
		}
	}
}

// TestBaseImageDetectsCorruption: every single-bit flip anywhere in the
// base image, and every truncation, makes Open fail — the prologue CRC
// covers magic, version and seq, the trailer CRC covers the graph file.
func TestBaseImageDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	pristine := writeBase(t, dir, multiLabelGraph())
	path := filepath.Join(dir, baseName)
	open := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err == nil {
			s.Close()
		}
		return err
	}
	for off := range pristine {
		mut := bytes.Clone(pristine)
		mut[off] ^= 0x40
		if open(mut) == nil {
			t.Fatalf("bit flip at offset %d went undetected", off)
		}
	}
	for _, cut := range []int{0, 1, 4, 11, basePrologueLen, len(pristine) / 2, len(pristine) - 1} {
		if open(pristine[:cut]) == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
	if err := open(pristine); err != nil {
		t.Fatalf("pristine image no longer opens: %v", err)
	}
}

func TestWALHeaderMismatchIsHardError(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Close()
	path := filepath.Join(dir, walName)
	// Wrong magic: refuse, don't repair — it is not our file.
	if err := os.WriteFile(path, []byte("NOPE\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("foreign wal magic accepted")
	}
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], 99)
	if err := os.WriteFile(path, hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("future wal version accepted")
	}
}

// TestCrashFSBudget pins the harness semantics the crash matrix depends
// on: byte-granular write tearing and all-ops-fail after exhaustion.
func TestCrashFSBudget(t *testing.T) {
	dir := t.TempDir()
	cfs := NewCrashFS(OSFS, 12)
	f, err := cfs.Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	// Create cost 1 event; 11 remain: a 20-byte write tears at 11.
	n, err := f.Write(make([]byte, 20))
	if !errors.Is(err, ErrCrashed) || n != 11 {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatal("write after crash succeeded")
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatal("sync after crash succeeded")
	}
	if err := cfs.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "g")); !errors.Is(err, ErrCrashed) {
		t.Fatal("rename after crash succeeded")
	}
	f.Close()
	got, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil || len(got) != 11 {
		t.Fatalf("file holds %d bytes (err %v), want the 11-byte torn prefix", len(got), err)
	}
	if cfs.Events() != 12 {
		t.Fatalf("events = %d, want 12", cfs.Events())
	}
}

func TestCrashFSCounting(t *testing.T) {
	dir := t.TempDir()
	cfs := NewCrashFS(OSFS, -1)
	s, err := Open(dir, Options{FS: cfs})
	if err != nil {
		t.Fatalf("open under counting CrashFS: %v", err)
	}
	if err := s.Append(1, []delta.Op{delta.AddNode("X")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if cfs.Events() == 0 || len(cfs.OpEvents()) == 0 {
		t.Fatal("counting mode recorded nothing")
	}
}
