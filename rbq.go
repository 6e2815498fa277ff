// Package rbq is a Go implementation of resource-bounded graph query
// answering after Fan, Wang & Wu, "Querying Big Graphs within Bounded
// Resources" (SIGMOD 2014).
//
// Given a query Q, a graph G and a resource ratio α ∈ (0,1), rbq answers Q
// by materializing a query-specific fragment G_Q with |G_Q| ≤ α·|G| and
// evaluating Q exactly on the fragment — trading a controlled amount of
// recall for a hard bound on the data accessed. Three query classes are
// supported:
//
//   - simulation queries (graph patterns under strong simulation), via the
//     paper's RBSim;
//   - subgraph queries (graph patterns under subgraph isomorphism), via
//     RBSub;
//   - reachability queries, via RBReach over a hierarchical landmark index
//     (never returning false positives).
//
// The exact baselines the paper compares against (MatchOpt, VF2Opt, BFS,
// BFSOpt, LM) are available too, so applications can calibrate α.
//
// Entry point: wrap a Graph in a DB, then issue a Request.
//
//	g := rbq.YoutubeLike(100_000, 1)
//	db := rbq.NewDB(g)
//	res, err := db.Query(ctx, q, rbq.Request{Alpha: 0.001})
//
// Request is the single declarative query value: Semantics selects
// strong simulation or subgraph isomorphism, Mode selects
// bounded/exact/unanchored evaluation, and the optional Anchor pins the
// personalized node. DB.Query honors context cancellation and routes
// compilation through a DB-level plan cache, so independent callers
// issuing the same hot template share one compiled plan.
package rbq

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"rbq/internal/accuracy"
	"rbq/internal/calibrate"
	"rbq/internal/dataset"
	"rbq/internal/delta"
	"rbq/internal/gen"
	"rbq/internal/graph"
	"rbq/internal/landmark"
	"rbq/internal/pattern"
	"rbq/internal/rbreach"
	"rbq/internal/store"
)

// NodeID identifies a node of a Graph.
type NodeID = graph.NodeID

// NoNode is returned by failed node lookups.
const NoNode = graph.NoNode

// Graph is an immutable node-labeled directed graph.
type Graph = graph.Graph

// GraphBuilder constructs Graphs.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder with capacity hints.
func NewGraphBuilder(nodes, edges int) *GraphBuilder { return graph.NewBuilder(nodes, edges) }

// Pattern is a graph pattern query Q = (V_p, E_p, f_v, u_p, u_o) with a
// personalized node and an output node.
type Pattern = pattern.Pattern

// PatternBuilder constructs Patterns.
type PatternBuilder = pattern.Builder

// NewPatternBuilder returns an empty pattern builder.
func NewPatternBuilder() *PatternBuilder { return pattern.NewBuilder() }

// ParsePattern reads the textual pattern format (see Pattern.String).
func ParsePattern(text string) (*Pattern, error) { return pattern.Parse(text) }

// Accuracy holds precision, recall and F-measure of an approximate answer
// set against the exact one (Section 3 of the paper).
type Accuracy = accuracy.Result

// MatchAccuracy scores an approximate match set against the exact answer.
func MatchAccuracy(exact, approx []NodeID) Accuracy { return accuracy.Matches(exact, approx) }

// DB wraps a data graph with the offline auxiliary structures the
// resource-bounded algorithms need. Constructing a DB performs the paper's
// once-for-all preprocessing for pattern queries (per-node degree and
// neighborhood label histograms, built in parallel); reachability indexing
// is separate (see BuildReachOracle) because it depends on α.
//
// The DB also owns (through its auxiliary structure) the per-query scratch
// pools the engines draw on: each query borrows a dense, graph-sized
// scratch — reduction stamp arrays, a reusable fragment, its CSR
// materialization and the matcher's bitsets — and returns it when done, so
// steady-state queries allocate only their result slice. The pools are
// concurrency-safe and every borrower gets a private scratch, which is why
// QueryBatch workers can share one DB without locking.
//
// Every pattern evaluation is a Request executed by the request core (see
// Query) against the snapshot it pinned, with the compiled form supplied
// by the plan cache.
//
// A DB is mutable through Apply (see mutate.go): mutations are buffered
// in a delta over an immutable base graph and published as immutable
// snapshots through one atomic pointer, so readers never block and
// every query executes against one consistent epoch. A DB constructed
// over a graph it does not mutate behaves exactly as before — the
// static hot path pays one snapshot-pointer load.
type DB struct {
	// snap is the current published snapshot (graph view + aux + epoch).
	// Readers pin it with one atomic load per query; Apply/Compact are
	// the only writers.
	snap atomic.Pointer[delta.Snapshot]

	// plans is the bounded DB-level cache of compiled plans, keyed by
	// pattern identity. A plan depends on the label alphabet, not on the
	// snapshot, so entries survive Apply and compaction (see
	// plancache.go).
	plans *planCache

	// mstats is the MutationStats value readers see: immutable, replaced
	// under mu whenever a counter it reports moves (see publishStatsLocked)
	// and read with one atomic load, so neither queries nor the
	// operational surface ever wait for a writer.
	mstats atomic.Pointer[MutationStats]

	// mu serializes the mutation side (Apply, Compact, threshold
	// changes, Close); no read — query, MutationStats, RecoveryStats,
	// PlanCacheStats — ever takes it.
	mu          sync.Mutex
	pending     *delta.Delta // cumulative live delta over the current base
	compactAt   int          // live-op threshold that triggers compaction
	compactions uint64

	// Telemetry of the most recent compaction (guarded by mu).
	lastCompactNs      int64
	lastCompactTouched int
	lastCompactMode    CompactMode

	// Persistence (nil/zero for in-memory DBs; see persist.go). store is
	// the open WAL + base-image directory, seq the last batch sequence
	// acked to it, recovery what OpenDB found on disk.
	store         *store.Store
	seq           uint64
	closed        bool
	recovery      RecoveryStats
	lastBaseErr   error // error of the most recent base-image write, nil if it succeeded
	baseWriteErrs uint64
}

// NewDB builds the offline auxiliary structure for g and returns a handle.
//
// A graph obtained from a mutated DB (see Graph after Apply) may be an
// overlay view; NewDB compacts such a view into a standalone base first,
// so any *Graph the library hands out is a valid argument.
func NewDB(g *Graph) *DB {
	g = g.Compact() // identity for base graphs
	db := &DB{
		plans:     newPlanCache(DefaultPlanCacheCapacity),
		compactAt: DefaultCompactThreshold,
	}
	aux := graph.BuildAux(g)
	db.snap.Store(delta.NewBase(g, aux, 0))
	db.pending = delta.New(g, aux)
	db.publishStatsLocked() // not yet shared: no lock needed
	return db
}

// snapshot pins the current published snapshot: one atomic load, the
// only cost mutation support adds to the static query hot path.
func (db *DB) snapshot() *delta.Snapshot { return db.snap.Load() }

// Load reads a graph — in either the textual edge-list format (see Save)
// or the compact binary format (see SaveBinary), auto-detected — and wraps
// it in a DB. Both decoders put edges that arrive in the graph's own
// order — by source, then each source's targets grouped by label in
// ascending label id, ids ascending within a label — as Save and
// SaveBinary write them, straight into the graph's arrays; any other
// order, such as a file written in plain (from, to) order, is sorted
// first.
func Load(r io.Reader) (*DB, error) {
	g, err := readGraph(r)
	if err != nil {
		return nil, err
	}
	return NewDB(g), nil
}

// readGraph decodes a graph in either of Load's formats.
func readGraph(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(4); err == nil && string(magic) == "RBQ1" {
		return dataset.ReadBinary(br)
	}
	return dataset.Read(br)
}

// Save writes the graph — the current snapshot's merged view — in a
// plain-text edge-list format readable by Load.
func (db *DB) Save(w io.Writer) error { return dataset.Write(w, db.snapshot().Graph()) }

// SaveBinary writes the graph in a compact binary format readable by Load,
// an order of magnitude faster to parse than the text format.
func (db *DB) SaveBinary(w io.Writer) error { return dataset.WriteBinary(w, db.snapshot().Graph()) }

// Graph returns the current snapshot's graph view. After Apply it
// includes the live delta; the value is immutable, so callers holding
// it keep a consistent point-in-time view across later mutations.
func (db *DB) Graph() *Graph { return db.snapshot().Graph() }

// ReachExact answers a reachability query exactly by BFS over the
// current snapshot.
func (db *DB) ReachExact(from, to NodeID) bool { return db.snapshot().Graph().Reachable(from, to) }

// ReachResult reports one resource-bounded reachability evaluation.
type ReachResult struct {
	// Answer is the verdict on the graph the oracle was built from (the
	// snapshot BuildReachOracle captured, or the graph a loaded oracle
	// was saved for). On that graph true is always correct (Theorem
	// 4(c): no false positives) and false may be a false negative. The
	// oracle does not follow Apply: after edges are deleted, true may
	// name a pair the DB no longer connects (ROADMAP direction 12).
	Answer bool
	// Visited counts index items touched, at most the oracle's budget.
	Visited int
}

// ReachOracle answers reachability queries within bounded resources (the
// paper's RBReach over a hierarchical landmark index).
type ReachOracle struct {
	inner *rbreach.Oracle
}

// BuildReachOracle runs the offline pipeline of Section 5 — condensation
// plus hierarchical landmark indexing with resource ratio alpha — and
// returns a query oracle. Each query then visits at most α|G| items.
// The oracle answers for the current snapshot alone: its guarantees
// (see ReachResult) hold on that graph and not on the DB after a later
// Apply, which it does not observe — build it again after mutating the
// graph (ROADMAP direction 12).
func (db *DB) BuildReachOracle(alpha float64) *ReachOracle {
	return &ReachOracle{inner: rbreach.New(db.snapshot().Graph(), landmark.BuildOptions{Alpha: alpha})}
}

// Reach answers whether from reaches to.
func (o *ReachOracle) Reach(from, to NodeID) ReachResult {
	r := o.inner.Query(from, to)
	return ReachResult{Answer: r.Answer, Visited: r.Visited}
}

// IndexSize returns the landmark index footprint (landmarks + index edges),
// bounded by α|G|.
func (o *ReachOracle) IndexSize() int { return o.inner.Index.Size() }

// Save persists the oracle's offline state (condensation + landmark
// index + budget) so it can be reloaded without re-running the
// preprocessing (see LoadReachOracle).
func (o *ReachOracle) Save(w io.Writer) error { return rbreach.SaveOracle(w, o.inner) }

// LoadReachOracle reads an oracle written by ReachOracle.Save for use
// with this DB, the counterpart of BuildReachOracle. An oracle answers in
// the node ids of the graph it was built from and holds only for that
// graph, so the file records the graph's size and a checksum of its
// labels and out-lists, and LoadReachOracle refuses one built from a
// graph other than the DB's current one.
func (db *DB) LoadReachOracle(r io.Reader) (*ReachOracle, error) {
	inner, err := rbreach.LoadOracle(r)
	if err != nil {
		return nil, err
	}
	if got, want := inner.Source, rbreach.SourceOf(db.snapshot().Graph()); got != want {
		return nil, fmt.Errorf("rbq: reach oracle built for another graph (|V|=%d |E|=%d crc %08x; this graph |V|=%d |E|=%d crc %08x)",
			got.Nodes, got.Edges, got.CRC, want.Nodes, want.Edges, want.CRC)
	}
	return &ReachOracle{inner: inner}, nil
}

// YoutubeLike generates a power-law stand-in for the paper's Youtube graph
// with n nodes (average degree ≈ 2.8; the internal/dataset package comment
// explains the substitution).
func YoutubeLike(n int, seed int64) *Graph { return dataset.YoutubeLike(n, seed) }

// YahooLike generates a power-law stand-in for the paper's Yahoo web graph
// with n nodes (average degree ≈ 5.0).
func YahooLike(n int, seed int64) *Graph { return dataset.YahooLike(n, seed) }

// RandomGraph generates a uniformly random labeled graph over the paper's
// 15-label alphabet (|E| edges, deterministic in seed). Set powerLaw for
// heavy-tailed degrees.
func RandomGraph(nodes, edges int, seed int64, powerLaw bool) *Graph {
	return gen.Random(gen.GraphConfig{Nodes: nodes, Edges: edges, Seed: seed, PowerLaw: powerLaw})
}

// ExtractPattern samples a (nodes, edges)-shaped pattern that is
// guaranteed to match: it copies real structure around a random seed node
// and gives that node a unique label. It returns the pattern, a copy of
// the graph with the unique label installed (query that DB!), and v_p.
func ExtractPattern(g *Graph, nodes, edges int, seed int64) (*Pattern, *Graph, NodeID, error) {
	return gen.PatternFromGraph(g, gen.PatternConfig{Nodes: nodes, Edges: edges, Seed: seed})
}

// AnchoredQuery is a pattern pinned at an explicit personalized match,
// used by batch and calibration APIs.
type AnchoredQuery struct {
	Q  *Pattern
	At NodeID
}

// CalibrationPoint is one sample of the empirical accuracy-vs-α curve.
type CalibrationPoint struct {
	Alpha        float64
	Accuracy     float64
	MeanFragment float64
}

// SimulationCurve evaluates the workload at each α against the exact
// baseline and returns the empirical accuracy curve — the data behind the
// paper's Fig. 8(c) and its Section 7 question of how η relates to α.
// Cancellation is cooperative: sweeps over large workloads are
// long-running, and a fired ctx stops the sweep and returns the points
// sampled so far.
func (db *DB) SimulationCurve(ctx context.Context, qs []AnchoredQuery, alphas []float64) []CalibrationPoint {
	pts := calibrate.Curve(ctx, db.snapshot().Aux(), toCalibrate(qs), alphas)
	return fromCalibrate(pts)
}

// MinAlphaForAccuracy searches (0, hi] for the smallest resource ratio
// whose workload accuracy reaches target (refined by `refine` bisection
// steps). ok is false when even hi misses the target. A fired ctx stops
// the search at the best point found so far.
func (db *DB) MinAlphaForAccuracy(ctx context.Context, qs []AnchoredQuery, target, hi float64, refine int) (CalibrationPoint, bool) {
	pt, ok := calibrate.MinAlpha(ctx, db.snapshot().Aux(), toCalibrate(qs), target, hi, refine)
	return CalibrationPoint{Alpha: pt.Alpha, Accuracy: pt.Accuracy, MeanFragment: pt.MeanFragment}, ok
}

func toCalibrate(qs []AnchoredQuery) []calibrate.Query {
	out := make([]calibrate.Query, len(qs))
	for i, q := range qs {
		out[i] = calibrate.Query{P: q.Q, VP: q.At}
	}
	return out
}

func fromCalibrate(pts []calibrate.Point) []CalibrationPoint {
	out := make([]CalibrationPoint, len(pts))
	for i, p := range pts {
		out[i] = CalibrationPoint{Alpha: p.Alpha, Accuracy: p.Accuracy, MeanFragment: p.MeanFragment}
	}
	return out
}
