// Package calibrate addresses the second open problem of Section 7 of
// Fan, Wang & Wu (SIGMOD 2014): given a resource ratio α, what accuracy
// ratio η can resource-bounded algorithms achieve — and, dually, what is
// the smallest α that achieves a target η?
//
// Theorem 3(b) gives a sufficient (but very loose) bound; the paper
// observes that in practice 100% accuracy arrives at ~3% of that bound.
// This package estimates the empirical curve η(α) for a query workload by
// direct evaluation against the exact baseline, and searches it for the
// smallest adequate α. Accuracy is not guaranteed monotone in α (the
// greedy frontier may shift), so the search is a conservative geometric
// sweep refined by bisection between the last failing and first
// succeeding sample, rather than a blind bisection.
package calibrate

import (
	"context"
	"fmt"

	"rbq/internal/accuracy"
	"rbq/internal/bounded"
	"rbq/internal/graph"
	"rbq/internal/interrupt"
	"rbq/internal/pattern"
	"rbq/internal/plan"
	"rbq/internal/reduce"
)

// Query is one workload item: a pattern pinned at its personalized match.
type Query struct {
	P  *pattern.Pattern
	VP graph.NodeID
}

// Point is one sample of the empirical accuracy curve.
type Point struct {
	// Alpha is the resource ratio sampled.
	Alpha float64
	// Accuracy is the mean F-measure over the workload at this α.
	Accuracy float64
	// MeanFragment is the mean |G_Q| over the workload.
	MeanFragment float64
}

// Curve evaluates RBSim at each α and returns the empirical accuracy
// curve. Each query is compiled once (exact answer and reduction
// semantics), then executed at every α through the prepared engine path.
// Cancellation is cooperative, exactly as for the request layer: ctx's
// Done channel is threaded into every reduction run and checked between
// samples, and a fired context returns the points sampled so far (nil
// ctx means context.Background()). Calibration sweeps over large
// workloads are long-running, which is why they ride the same
// cancellation plumbing as serving queries.
func Curve(ctx context.Context, aux *graph.Aux, queries []Query, alphas []float64) []Point {
	pq := prepare(ctx, aux, queries)
	out := make([]Point, 0, len(alphas))
	for _, a := range alphas {
		if interrupt.Err(ctx) != nil {
			break
		}
		out = append(out, sample(ctx, pq, a))
	}
	return out
}

// prepared is the calibration workload compiled once through the plan
// layer: per query, a compiled plan and the exact baseline answer. A
// calibration sweep evaluates every query at many α values, so the
// per-query compile step is hoisted out of the α loop.
type prepared struct {
	aux     *graph.Aux
	queries []Query
	exact   [][]graph.NodeID
	plans   []*plan.Plan
}

// prepare compiles each query and runs its exact baseline. The exact
// runs honor ctx through MatchOpt's fixpoint probe — calibration sweeps
// are long-running, and the baselines are the expensive half — so a
// fired ctx leaves the remaining baselines nil; the callers' interrupt
// checks stop the sweep before those entries are scored.
func prepare(ctx context.Context, aux *graph.Aux, queries []Query) *prepared {
	done := interrupt.Done(ctx)
	pq := &prepared{
		aux:     aux,
		queries: queries,
		exact:   make([][]graph.NodeID, len(queries)),
		plans:   make([]*plan.Plan, len(queries)),
	}
	for i, q := range queries {
		pl, err := plan.New(aux, q.P)
		if err != nil {
			// Queries come from Builder/Parse and are valid by
			// construction; a failure here is a caller bug.
			panic(fmt.Sprintf("calibrate: %v", err))
		}
		pq.plans[i] = pl
		pq.exact[i], _ = pl.Exact(aux, bounded.Simulation, q.VP, done, 0)
	}
	return pq
}

func sample(ctx context.Context, pq *prepared, alpha float64) Point {
	pt := Point{Alpha: alpha}
	if len(pq.queries) == 0 {
		pt.Accuracy = 1
		return pt
	}
	done := interrupt.Done(ctx)
	for i, q := range pq.queries {
		res := pq.plans[i].Bounded(pq.aux, bounded.Simulation, q.VP, reduce.Options{Alpha: alpha, Interrupt: done}, nil)
		pt.Accuracy += accuracy.Matches(pq.exact[i], res.Matches).F
		pt.MeanFragment += float64(res.Stats.FragmentSize)
	}
	pt.Accuracy /= float64(len(pq.queries))
	pt.MeanFragment /= float64(len(pq.queries))
	return pt
}

// MinAlpha finds the smallest α in (0, hi] whose workload accuracy is at
// least target. It sweeps geometrically from hi downward (factor 2) to
// bracket the transition, then bisects the bracket refine times. It
// returns the best point found; ok is false when even α = hi misses the
// target (the returned point is then the hi sample). A canceled ctx
// stops the search at the best point found so far (see Curve on the
// cancellation contract).
func MinAlpha(ctx context.Context, aux *graph.Aux, queries []Query, target, hi float64, refine int) (Point, bool) {
	if target <= 0 || target > 1 {
		panic(fmt.Sprintf("calibrate: target %v outside (0,1]", target))
	}
	if hi <= 0 {
		panic("calibrate: hi must be positive")
	}
	g := aux.Graph()
	pq := prepare(ctx, aux, queries)
	if interrupt.Err(ctx) != nil {
		// The exact baselines were cut short: scoring against their nil
		// answers would fabricate perfect accuracy (empty == empty), so
		// report "target not reached" instead of a made-up point.
		return Point{Alpha: hi}, false
	}

	best := sample(ctx, pq, hi)
	if best.Accuracy < target {
		return best, false
	}
	// Geometric descent: find the largest tested α that fails.
	lo := 0.0
	a := hi / 2
	minUseful := 1.0 / float64(g.Size()) // below one item the budget is empty
	for a >= minUseful && interrupt.Err(ctx) == nil {
		pt := sample(ctx, pq, a)
		if pt.Accuracy >= target {
			best = pt
			a /= 2
			continue
		}
		lo = a
		break
	}
	// Bisect between the failing lo and the succeeding best.Alpha.
	hiA := best.Alpha
	for i := 0; i < refine && interrupt.Err(ctx) == nil; i++ {
		mid := (lo + hiA) / 2
		if mid <= minUseful {
			break
		}
		pt := sample(ctx, pq, mid)
		if pt.Accuracy >= target {
			best = pt
			hiA = mid
		} else {
			lo = mid
		}
	}
	return best, true
}

// MaxAccuracy estimates the η of the paper's open problem directly: the
// accuracy achievable at a given α on the workload.
func MaxAccuracy(ctx context.Context, aux *graph.Aux, queries []Query, alpha float64) Point {
	pq := prepare(ctx, aux, queries)
	if interrupt.Err(ctx) != nil {
		// See MinAlpha: a canceled prepare must not score as perfect.
		return Point{Alpha: alpha}
	}
	return sample(ctx, pq, alpha)
}
