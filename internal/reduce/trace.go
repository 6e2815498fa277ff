package reduce

import (
	"fmt"
	"io"

	"rbq/internal/graph"
	"rbq/internal/pattern"
)

// EventKind classifies a reduction trace event.
type EventKind int

const (
	// EventRound starts a new bound-escalation round (Bound carries b).
	EventRound EventKind = iota
	// EventPop is a stack pop of a (query node, data node) pair.
	EventPop
	// EventAdd is a node admitted to the fragment (Weight carries the
	// size increase).
	EventAdd
	// EventPush is a candidate pushed by Pick (Weight carries its rank
	// weight).
	EventPush
	// EventGuardReject is a neighbor discarded by the guarded condition
	// (label test included). It is emitted while an adjacency list is
	// scanned, which happens once per list and query: a later round that
	// replays the list from the memo repeats none of these events, and
	// carries the list's reject count straight into its "round" span's
	// guard_rejects instead. A scan the visit budget or a cancellation
	// cuts short emits the rejects it got to, then the stop event.
	EventGuardReject
	// EventBudgetStop reports the size budget halting the search.
	EventBudgetStop
	// EventVisitStop reports the visit budget halting the search.
	EventVisitStop
	// EventCanceled reports Options.Interrupt halting the search.
	EventCanceled
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventRound:
		return "round"
	case EventPop:
		return "pop"
	case EventAdd:
		return "add"
	case EventPush:
		return "push"
	case EventGuardReject:
		return "guard-reject"
	case EventBudgetStop:
		return "budget-stop"
	case EventVisitStop:
		return "visit-stop"
	case EventCanceled:
		return "canceled"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one step of the dynamic reduction, reported when
// Options.Trace is set. It makes the paper's Example 4 walk-through
// observable: every pop, ranked push and fragment insertion appears in
// order, and every guarded rejection the first time its list is read
// (see EventGuardReject).
type Event struct {
	Kind   EventKind
	U      pattern.NodeID // query node involved (when applicable)
	V      graph.NodeID   // data node involved (when applicable)
	Weight float64        // rank weight for pushes; size delta for adds
	Bound  int            // fairness bound b in force
}

// Tracer receives reduction events. Implementations must be fast; they run
// inline with the search.
type Tracer func(Event)

// WriteTracer returns a Tracer that renders events one per line, for
// debugging and tests.
func WriteTracer(w io.Writer) Tracer {
	return func(e Event) {
		switch e.Kind {
		case EventRound:
			fmt.Fprintf(w, "-- round with b=%d\n", e.Bound)
		case EventBudgetStop, EventVisitStop, EventCanceled:
			// Stop events carry no meaningful pair; render the bare kind.
			fmt.Fprintf(w, "%s\n", e.Kind)
		case EventAdd:
			fmt.Fprintf(w, "add v=%d (+%d items)\n", e.V, int(e.Weight))
		case EventPush:
			fmt.Fprintf(w, "push (u=%d, v=%d) w=%.3f\n", e.U, e.V, e.Weight)
		default:
			fmt.Fprintf(w, "%s (u=%d, v=%d)\n", e.Kind, e.U, e.V)
		}
	}
}

// emit reports an event if tracing is enabled.
func (e *engine) emit(kind EventKind, u pattern.NodeID, v graph.NodeID, w float64) {
	if e.opts.Trace != nil {
		e.opts.Trace(Event{Kind: kind, U: u, V: v, Weight: w, Bound: e.bound})
	}
}
