package rbq

// The request layer: one declarative request value, one execution core.
//
// Every pattern evaluation the facade offers — both matching semantics,
// the bounded/exact/unanchored regimes, explicit pins, batches — is a
// Request executed by runRequest, with context cancellation threaded
// cooperatively through every engine loop, a DB-level plan cache shared
// by independent callers (see plancache.go), and an opt-in per-query
// trace.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"rbq/internal/bounded"
	"rbq/internal/delta"
	"rbq/internal/exec"
	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/obs"
	"rbq/internal/plan"
	"rbq/internal/rbany"
	"rbq/internal/reduce"
	"rbq/internal/subiso"
)

// Semantics selects the matching semantics of a Request. Its values are
// the engine's query classes, so a Semantics converts to a bounded.Class
// as is.
type Semantics int

const (
	// Simulation matches under strong simulation (the paper's RBSim
	// family). The zero value.
	Simulation = Semantics(bounded.Simulation)
	// Subgraph matches under subgraph isomorphism (RBSub, VF2Opt).
	Subgraph = Semantics(bounded.Subgraph)
)

// Mode selects the evaluation regime of a Request.
type Mode int

const (
	// Bounded evaluates within bounded resources: a fragment G_Q with
	// |G_Q| ≤ Alpha·|G| is extracted and matched exactly. The zero value.
	Bounded Mode = iota
	// Exact runs the optimized exact baseline (MatchOpt / VF2Opt) with no
	// resource bound.
	Exact
	// Unanchored evaluates a pattern with no unique personalized match:
	// every candidate of the most selective query node is tried as the
	// anchor, sharing one Alpha·|G| budget proportionally to each anchor's
	// Potential-mass selectivity, floored at one item.
	Unanchored
)

// ErrBadRequest wraps every Request validation failure, so callers can
// distinguish a malformed request from an evaluation error with
// errors.Is.
var ErrBadRequest = errors.New("rbq: invalid request")

// Request is a declarative pattern-query request: what to evaluate and
// under which resource regime, as one data value. The zero Request is a
// Bounded Simulation query — only Alpha must be set. Requests are small
// and copyable; build them inline per call or reuse one across calls.
type Request struct {
	// Semantics selects the matching semantics; zero is Simulation.
	Semantics Semantics
	// Mode selects the evaluation regime; zero is Bounded.
	Mode Mode
	// Anchor pins the personalized node u_p to an explicit data node
	// (see Pin), bypassing the unique-label lookup. Nil uses the unique
	// match of the personalized label in the pinned snapshot. Must be nil in
	// Unanchored mode; batch entry points supply it per item.
	Anchor *NodeID
	// Alpha is the resource ratio α, normally in (0,1) (Bounded and
	// Unanchored modes; must be zero in Exact mode). α ≥ 1 covers the
	// whole graph; α = 0 yields budget 0 and an empty answer.
	Alpha float64
	// MaxSteps caps the subgraph matcher's backtracking search (0 =
	// unlimited; Result.Complete reports whether the cap was hit). A
	// search the cap cuts short returns the matches it had confirmed: a
	// subset of the complete answer, and which subset depends on the
	// order it met candidates in. Only valid with Subgraph semantics.
	MaxSteps int64
	// WantTrace asks for Result.Trace: a structured span tree covering
	// the plan probe, selectivity scan, reduction rounds, fragment
	// extraction, exact matching and (in Unanchored mode) the anchor loop
	// with one summary span per anchor run. Off by default; when off the
	// execution path is bit-for-bit and allocation-identical to a
	// traceless build (every engine touch point is a nil check, the same
	// discipline as the interrupt probes).
	WantTrace bool
	// Tracer, when non-nil, receives the dynamic reduction's raw event
	// stream (every pop, ranked push and fragment insertion, in order,
	// and every guarded rejection the first time its adjacency list is
	// read — the paper's Example 4 made observable; see
	// reduce.WriteTracer for a textual renderer). The tracer runs inline
	// with the search, so it requires Bounded or Unanchored mode and
	// refuses the batch entry points, whose items run concurrently.
	// Independent of WantTrace, which aggregates instead of streaming.
	Tracer ReduceTracer
}

// Pin returns Request.Anchor pinning the personalized node to v.
func Pin(v NodeID) *NodeID { return &v }

// validate checks the request's internal consistency; every failure
// wraps ErrBadRequest.
func (req Request) validate() error {
	switch req.Semantics {
	case Simulation, Subgraph:
	default:
		return fmt.Errorf("%w: unknown semantics %d", ErrBadRequest, req.Semantics)
	}
	switch req.Mode {
	case Bounded, Unanchored:
		// The paper's regime is α ∈ (0,1), but the engines define the
		// whole half-line: α ≥ 1 means "budget covers the whole graph"
		// (used by tests and calibration sweeps) and α = 0 yields budget
		// 0 and an empty — not erroneous — answer, the seed's documented
		// contract. Only values with no defined budget are rejected.
		if req.Alpha < 0 || math.IsNaN(req.Alpha) {
			return fmt.Errorf("%w: alpha %v must be non-negative", ErrBadRequest, req.Alpha)
		}
	case Exact:
		if req.Alpha != 0 {
			return fmt.Errorf("%w: alpha is meaningless in Exact mode (got %v)", ErrBadRequest, req.Alpha)
		}
	default:
		return fmt.Errorf("%w: unknown mode %d", ErrBadRequest, req.Mode)
	}
	if req.Mode == Unanchored && req.Anchor != nil {
		return fmt.Errorf("%w: an Unanchored request cannot carry an Anchor", ErrBadRequest)
	}
	if req.MaxSteps < 0 {
		return fmt.Errorf("%w: negative MaxSteps %d", ErrBadRequest, req.MaxSteps)
	}
	if req.MaxSteps != 0 && req.Semantics != Subgraph {
		return fmt.Errorf("%w: MaxSteps applies to Subgraph semantics only", ErrBadRequest)
	}
	if req.Tracer != nil && req.Mode == Exact {
		return fmt.Errorf("%w: Tracer observes the dynamic reduction, which Exact mode does not run", ErrBadRequest)
	}
	return nil
}

// ReduceTracer receives the dynamic reduction's raw event stream (see
// Request.Tracer); an alias of the reduce engine's Tracer.
type ReduceTracer = reduce.Tracer

// Trace is the structured span tree attached to a Result when
// Request.WantTrace is set: phases with wall time and counters (see
// the obs package for the span model and phase names).
type Trace = obs.Trace

// Result is the unified answer of a Request.
type Result struct {
	// Matches are the data nodes matching the pattern's output node,
	// sorted ascending.
	Matches []NodeID
	// Personalized is the anchor the evaluation ran from: the explicit
	// Request.Anchor, the unique match of the personalized label, or
	// NoNode in Unanchored mode.
	Personalized NodeID
	// Complete reports whether the matcher ran to completion. It is
	// false only under Subgraph semantics in anchored modes, when
	// MaxSteps was exhausted.
	Complete bool
	// FragmentSize is |G_Q| (nodes+edges) actually extracted; Budget is
	// the cap α|G|; Visited counts data items examined during reduction.
	// All zero in Exact mode; in Unanchored mode they aggregate over the
	// per-anchor runs.
	FragmentSize, Budget, Visited int
	// Candidates is how many anchor candidates passed the guard and
	// Evaluated how many were run before the budget drained; both are
	// Unanchored-mode telemetry, zero otherwise.
	Candidates, Evaluated int
	// Trace is the per-query span tree; non-nil only when
	// Request.WantTrace was set.
	Trace *Trace
	// Epoch is the publish epoch of the snapshot the evaluation pinned:
	// the answer reflects exactly the mutations applied up to it, whatever
	// Applies landed while it ran. Every item of a batch carries the
	// batch's one pin.
	Epoch uint64
}

// Query evaluates req for pattern q.
//
// The compiled plan comes from the DB's bounded plan cache, keyed by the
// pattern's textual form, so independent callers issuing the same hot
// template share one compilation (see PlanCacheStats).
//
// Cancellation is cooperative: the engine loops poll ctx.Done() at a
// fixed stride — the reduce engine and VF2 backtracker on their item
// counters, the exact simulation baseline (MatchOpt) on its fixpoint
// refinement probes — so a canceled or expired context makes Query
// return ctx.Err() promptly (within ~1024 items of engine work) with a
// zero Result. A nil ctx is treated as context.Background(), which
// costs nothing on the hot path.
//
// The query executes against the snapshot current at the call: one
// atomic load pins the graph view, Aux and epoch for the query's whole
// lifetime, so concurrent DB.Apply calls never tear an evaluation.
func (db *DB) Query(ctx context.Context, q *Pattern, req Request) (Result, error) {
	if err := req.validate(); err != nil {
		return Result{}, err
	}
	var t0 time.Time
	if req.WantTrace {
		t0 = time.Now()
	}
	snap := db.snapshot()
	pl, hit, err := db.plans.lookup(snap.Aux(), q)
	if err != nil {
		return Result{}, err
	}
	var planTime time.Duration
	if req.WantTrace {
		planTime = time.Since(t0)
	}
	return runRequest(ctx, pl, snap, req, hit, planTime)
}

// QueryBatch evaluates req at many (pattern, pin) items concurrently,
// with each item's At pinning the personalized node (req.Anchor must be
// nil, and Mode must be anchored — Bounded or Exact). workers ≤ 0 means
// one goroutine per CPU. Each distinct template is compiled once through
// the plan cache (one lookup per distinct *Pattern, not per item).
// Results align with qs; an item whose pin fails validation — or whose
// template fails to compile — yields a zero Result carrying only its
// Personalized pin (and the batch's Epoch), leaving the rest of the batch
// intact. When ctx is
// canceled mid-batch the already-computed results are returned alongside
// ctx.Err(), with unprocessed items left zero.
func (db *DB) QueryBatch(ctx context.Context, qs []AnchoredQuery, req Request, workers int) ([]Result, error) {
	if err := req.validateBatch(); err != nil {
		return nil, err
	}
	// Resolve every distinct template to its cached plan up front: one
	// serialized cache probe per template (batches repeat a handful of
	// templates at many pins), so the workers touch no shared state and
	// the cache's hit/miss counters keep reflecting template reuse
	// rather than batch size. A template that fails to compile yields
	// nil and zeroes only its own items.
	type planInfo struct {
		pl  *plan.Plan
		hit bool
		// planTime is the template's one cache resolution, attributed to
		// the item that triggered it (first below) so that summing the
		// plan spans' durations over a batch counts each compile once.
		planTime time.Duration
		first    int
	}
	infos := make([]planInfo, 0, 8)
	seen := make(map[*Pattern]int, 8)
	idx := make([]int, len(qs))
	done := interrupt.Done(ctx)
	// One snapshot pin for the whole batch: every item evaluates against
	// the same epoch, whatever Applies land while the workers run.
	snap := db.snapshot()
	for i, item := range qs {
		// Cancellation must bound the compile phase too: a fired context
		// stops template resolution, not just the workers.
		if interrupt.Fired(done) {
			return make([]Result, len(qs)), interrupt.Err(ctx)
		}
		j, ok := seen[item.Q]
		if !ok {
			var t0 time.Time
			if req.WantTrace {
				t0 = time.Now()
			}
			pl, hit, err := db.plans.lookup(snap.Aux(), item.Q)
			if err != nil {
				pl = nil // compile failure: this template's items zero out
			}
			info := planInfo{pl: pl, hit: hit, first: i}
			if req.WantTrace {
				info.planTime = time.Since(t0)
			}
			j = len(infos)
			infos = append(infos, info)
			seen[item.Q] = j
		}
		idx[i] = j
	}
	out := make([]Result, len(qs))
	shardWorkers := exec.BatchWorkers(workers)
	exec.Run(done, len(qs), shardWorkers, func(i int) {
		info := infos[idx[i]]
		var planTime time.Duration
		if i == info.first {
			planTime = info.planTime
		}
		out[i] = runBatchItem(ctx, info.pl, snap, req, &qs[i].At, info.hit, planTime, i, shardWorkers)
	})
	return out, interrupt.Err(ctx)
}

// Query evaluates req through the prepared plan. The compilation was done
// by Prepare, so the trace's plan span reports a cache hit taking no time.
func (pq *PreparedQuery) Query(ctx context.Context, req Request) (Result, error) {
	if err := req.validate(); err != nil {
		return Result{}, err
	}
	return runRequest(ctx, pq.pl, pq.snap, req, true, 0)
}

// QueryBatch evaluates req at many pins concurrently through the
// prepared plan (see DB.QueryBatch for the batch contract; req.Anchor
// must be nil and Mode anchored).
func (pq *PreparedQuery) QueryBatch(ctx context.Context, pins []NodeID, req Request, workers int) ([]Result, error) {
	if err := req.validateBatch(); err != nil {
		return nil, err
	}
	out := make([]Result, len(pins))
	shardWorkers := exec.BatchWorkers(workers)
	exec.Run(interrupt.Done(ctx), len(pins), shardWorkers, func(i int) {
		out[i] = runBatchItem(ctx, pq.pl, pq.snap, req, &pins[i], true, 0, i, shardWorkers)
	})
	return out, interrupt.Err(ctx)
}

// validateBatch is validate plus the shape a batch entry point needs:
// an anchored mode, no request-level anchor (items carry their own) and
// no serial tracer.
func (req Request) validateBatch() error {
	if err := req.validate(); err != nil {
		return err
	}
	if req.Mode == Unanchored {
		return fmt.Errorf("%w: QueryBatch needs an anchored mode", ErrBadRequest)
	}
	if req.Anchor != nil {
		return fmt.Errorf("%w: QueryBatch items carry their own anchors", ErrBadRequest)
	}
	if req.Tracer != nil {
		return fmt.Errorf("%w: Tracer is a serial stream; batch items run concurrently", ErrBadRequest)
	}
	return nil
}

// runBatchItem is the per-item body of the batch entry points: req is
// evaluated at the item's own pin through pl (nil when the item's
// template failed to compile) against the one snapshot the batch
// pinned. An item that fails — a pin failing validation, a template that
// did not compile — yields a zero Result carrying only its pin and the
// epoch, leaving the rest of the batch intact. i is the item's slot and
// shardWorkers the width of the exec pool the batch fanned out to (the
// DB's structures are immutable and every evaluation borrows private
// scratch, so the items are embarrassingly parallel).
func runBatchItem(ctx context.Context, pl *plan.Plan, snap *delta.Snapshot, req Request, at *NodeID, cacheHit bool, planTime time.Duration, i, shardWorkers int) Result {
	if pl == nil {
		return Result{Personalized: *at, Epoch: snap.Epoch()}
	}
	req.Anchor = at
	res, err := runRequest(ctx, pl, snap, req, cacheHit, planTime)
	if err != nil {
		return Result{Personalized: *at, Epoch: snap.Epoch()}
	}
	// Each item owns its trace, so stamping the shard identity here is
	// race-free: which slot this item ran in and how wide the batch pool
	// fanned out.
	if res.Trace != nil {
		res.Trace.Root.Add("batch_index", int64(i))
		res.Trace.Root.Add("batch_workers", int64(shardWorkers))
	}
	return res
}

// runRequest is the one execution core. req must be validated; snap is
// the snapshot the request pinned — pl must be valid at its alphabet —
// and its epoch is reported back as Result.Epoch. The engines receive
// ctx's Done channel through their options and poll it cooperatively; a
// fired context surfaces as ctx.Err() here, regardless of how far the
// evaluation got.
func runRequest(ctx context.Context, pl *plan.Plan, snap *delta.Snapshot, req Request, cacheHit bool, planTime time.Duration) (Result, error) {
	done := interrupt.Done(ctx)
	aux := snap.Aux()
	// The span tree exists only when asked for: execSpan stays nil
	// otherwise, and every engine touch point below it is a nil check
	// (obs methods no-op on nil receivers), keeping the trace-off path
	// bit-for-bit and allocation-identical to a traceless build.
	var tr *obs.Trace
	var execSpan *obs.Span
	if req.WantTrace {
		tr = obs.NewTrace(obs.PhaseQuery)
		ps := tr.Root.Child(obs.PhasePlan)
		ps.SetDur(planTime)
		if cacheHit {
			ps.Add("cache_hit", 1)
		}
		execSpan = tr.Root.Child(obs.PhaseExec)
	}
	var res Result
	class := bounded.Class(req.Semantics)
	// Only the isomorphism matcher reads matcher options, so a simulation
	// query allocates none.
	var mopts *subiso.Options
	if class == bounded.Subgraph {
		mopts = subOpts(req.MaxSteps, done)
	}
	ropts := reduce.Options{Alpha: req.Alpha, Interrupt: done, Trace: req.Tracer, Obs: execSpan}

	if req.Mode == Unanchored {
		r := pl.Unanchored(aux, class, rbany.Options{Alpha: req.Alpha, Reduce: ropts}, mopts)
		res = Result{
			Matches:      r.Matches,
			Personalized: NoNode,
			Complete:     true,
			FragmentSize: r.FragmentSize,
			Budget:       reduce.Budget(req.Alpha, aux.Graph().Size()),
			Visited:      r.Visited,
			Candidates:   r.Candidates,
			Evaluated:    r.Evaluated,
		}
	} else {
		var vp NodeID
		if req.Anchor != nil {
			vp = *req.Anchor
			if err := checkPin(pl, aux, vp); err != nil {
				return Result{}, err
			}
		} else {
			var ok bool
			if vp, ok = pl.Personalized(aux); !ok {
				return Result{}, personalizedErr(pl)
			}
		}
		if req.Mode == Exact {
			es := execSpan.Child(obs.PhaseExact)
			m, complete := pl.Exact(aux, class, vp, done, req.MaxSteps)
			es.Add("matches", int64(len(m)))
			es.End()
			res = Result{Matches: m, Personalized: vp, Complete: complete}
		} else {
			r := pl.Bounded(aux, class, vp, ropts, mopts)
			res = Result{
				Matches: r.Matches, Personalized: vp, Complete: r.Complete,
				FragmentSize: r.Stats.FragmentSize, Budget: r.Stats.Budget, Visited: r.Stats.Visited,
			}
		}
	}
	if err := interrupt.Err(ctx); err != nil {
		return Result{}, err
	}
	res.Epoch = snap.Epoch()
	if req.WantTrace {
		execSpan.Add("matches", int64(len(res.Matches)))
		execSpan.End()
		tr.Finish()
		res.Trace = tr
	}
	return res, nil
}

// subOpts builds the subgraph matcher options, returning nil when both
// knobs are off so the Background-context hot path allocates no Options.
func subOpts(maxSteps int64, done <-chan struct{}) *subiso.Options {
	if maxSteps == 0 && done == nil {
		return nil
	}
	return &subiso.Options{MaxSteps: maxSteps, Interrupt: done}
}

func personalizedErr(pl *plan.Plan) error {
	q := pl.Pattern()
	return fmt.Errorf("rbq: the personalized node's label %q does not have a unique match",
		q.Label(q.Personalized()))
}

func checkPin(pl *plan.Plan, aux *graph.Aux, vp NodeID) error {
	if err := pl.CheckPin(aux, vp); err != nil {
		return fmt.Errorf("rbq: %w", err)
	}
	return nil
}
