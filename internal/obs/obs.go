// Package obs is the per-query observability layer: a structured tree
// of spans (phases with wall time and named counters) attached to a
// Result when the caller opts in with Request.WantTrace.
//
// The package is deliberately a leaf — stdlib only, imported by the
// engines (reduce, bounded, rbany), the request layer, and the
// serving tier. Every method is nil-safe: calling Child/Add/End on a
// nil *Span is a no-op that performs no allocation and reads no clock,
// so the engines thread a possibly-nil span through their hot paths
// with the same discipline as the interrupt probes — the trace-off
// path pays one pointer test per touch point and nothing else.
package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Phase names used across the stack. Keeping them here (rather than as
// ad-hoc strings at each call site) makes the trace tree greppable and
// lets tests assert coverage by constant.
const (
	PhaseQuery       = "query"       // root span of one Request
	PhasePlan        = "plan"        // plan-cache probe / compile
	PhaseExec        = "exec"        // engine execution (everything after planning)
	PhaseAdmission   = "admission"   // serving tier: admission-control wait
	PhaseReduce      = "reduce"      // dynamic reduction (Fig. 3 Search)
	PhaseRound       = "round"       // one fairness-bound round of the reduction
	PhaseExtract     = "extract"     // fragment → CSR ball extraction
	PhaseMatch       = "match"       // exact matching on the extracted fragment
	PhaseSelectivity = "selectivity" // unanchored: anchor candidate guard scan
	PhaseAnchorWave  = "anchor-wave" // unanchored: budget-split anchor evaluation
	PhaseAnchor      = "anchor"      // one anchor's summarized run
	PhaseExact       = "exact"       // exact (unbounded) execution
)

// Counter is one named tally on a span. Counters are stored as a small
// slice with linear-search upsert: span counter sets are tiny (≤ ~8)
// and a slice keeps JSON output deterministic where a map would not.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Span is one timed phase. Exported fields marshal to JSON for the
// serving tier's trace responses and slow-query log; the start
// timestamp stays internal.
type Span struct {
	Name     string        `json:"name"`
	Dur      time.Duration `json:"dur_ns"`
	Counters []Counter     `json:"counters,omitempty"`
	Children []*Span       `json:"children,omitempty"`

	start time.Time
}

// StartSpan returns a new root span with the clock running.
func StartSpan(name string) *Span {
	return &Span{Name: name, start: time.Now()}
}

// Child appends a new child span with the clock running. On a nil
// receiver it returns nil, so a whole untraced call tree costs one
// branch per touch point.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, start: time.Now()}
	s.Children = append(s.Children, c)
	return c
}

// Add upserts delta into the named counter. No-op on nil.
func (s *Span) Add(name string, delta int64) {
	if s == nil {
		return
	}
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			s.Counters[i].Value += delta
			return
		}
	}
	s.Counters = append(s.Counters, Counter{Name: name, Value: delta})
}

// End stops the clock, recording the elapsed wall time. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Dur = time.Since(s.start)
}

// SetDur records an externally measured duration (used when the phase
// was timed by the caller, e.g. the plan-cache probe). No-op on nil.
func (s *Span) SetDur(d time.Duration) {
	if s == nil {
		return
	}
	s.Dur = d
}

// Counter returns the value of the named counter and whether it is set.
func (s *Span) Counter(name string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Value, true
		}
	}
	return 0, false
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s (including s itself), or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Trace is the top-level container attached to a Result. RequestID is
// filled by the serving tier so one ID joins the response, the access
// log, the slow-query log, and /v1/debug/slow.
type Trace struct {
	RequestID string `json:"request_id,omitempty"`
	Root      *Span  `json:"root"`
}

// NewTrace starts a trace whose root span is already running.
func NewTrace(name string) *Trace {
	return &Trace{Root: StartSpan(name)}
}

// Finish ends the root span. No-op on nil.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Root.End()
}

// Find is Span.Find from the root.
func (t *Trace) Find(name string) *Span {
	if t == nil {
		return nil
	}
	return t.Root.Find(name)
}

// WriteText renders the tree as an indented phase breakdown:
//
//	query                            812µs
//	  plan                           1.2µs   cache_hit=1
//	  exec                           640µs
//	    reduce                       310µs   rounds=2 visited=412
//
// Counters print in sorted name order so output is deterministic.
func (t *Trace) WriteText(w io.Writer) {
	if t == nil {
		return
	}
	writeSpan(w, t.Root, 0)
}

func writeSpan(w io.Writer, s *Span, depth int) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "%*s%-*s %10s", depth*2, "", 24-depth*2, s.Name, s.Dur.Round(100*time.Nanosecond))
	if len(s.Counters) > 0 {
		cs := make([]Counter, len(s.Counters))
		copy(cs, s.Counters)
		sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
		for _, c := range cs {
			fmt.Fprintf(w, " %s=%d", c.Name, c.Value)
		}
	}
	fmt.Fprintln(w)
	for _, c := range s.Children {
		writeSpan(w, c, depth+1)
	}
}
