package reduce

import (
	"testing"

	"rbq/internal/graph"
	"rbq/internal/interrupt"
)

// TestInterruptStopsSearchPromptly: a closed Interrupt channel stops the
// reduction within one probe stride of visited items — the promptness
// bound the facade's context cancellation rests on — and reports
// Canceled rather than a budget stop.
func TestInterruptStopsSearchPromptly(t *testing.T) {
	g, h := starGraph("P", 4*interrupt.Stride, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	// MaxBound keeps the star fixture to one round (escalation would
	// re-scan the hub's thousands of neighbors once per round); a single
	// round already visits several strides.
	opts := Options{Alpha: 1.0, MaxBound: 2}

	// The uncanceled run must be big enough that stopping after one
	// stride is observable.
	_, base := Search(aux, p, h, labelSemantics{g, p}, opts)
	if base.Visited <= 2*interrupt.Stride {
		t.Fatalf("fixture too small: uncanceled run visited only %d items", base.Visited)
	}
	if base.Canceled {
		t.Fatal("uncanceled run reported Canceled")
	}

	done := make(chan struct{})
	close(done)
	opts.Interrupt = done
	_, stats := Search(aux, p, h, labelSemantics{g, p}, opts)
	if !stats.Canceled {
		t.Fatalf("closed Interrupt not observed: %+v", stats)
	}
	if stats.Visited > interrupt.Stride {
		t.Fatalf("visited %d items after cancellation, want ≤ one stride (%d)",
			stats.Visited, interrupt.Stride)
	}
	if stats.VisitsExhausted {
		t.Fatal("cancellation misreported as a drained visit budget")
	}
}

// TestInterruptOpenChannelHarmless: an open (never-fired) Interrupt
// leaves the search bit-for-bit identical to a nil one.
func TestInterruptOpenChannelHarmless(t *testing.T) {
	g, h := starGraph("P", 2*interrupt.Stride, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	opts := Options{Alpha: 0.5, MaxBound: 4}
	fragNil, statsNil := Search(aux, p, h, labelSemantics{g, p}, opts)
	done := make(chan struct{})
	opts.Interrupt = done
	fragOpen, statsOpen := Search(aux, p, h, labelSemantics{g, p}, opts)
	if statsNil != statsOpen {
		t.Fatalf("stats diverge: %+v vs %+v", statsNil, statsOpen)
	}
	if fragNil.Size() != fragOpen.Size() || fragNil.NumNodes() != fragOpen.NumNodes() {
		t.Fatalf("fragments diverge: %d/%d vs %d/%d items/nodes",
			fragNil.Size(), fragNil.NumNodes(), fragOpen.Size(), fragOpen.NumNodes())
	}
}

// TestInterruptStopsWithinOneStrideOfChargedVisits: on a hub-rooted
// multi-round search every round after the first replays the hub's
// memoized list and charges its thousands of visits in one step. An
// Interrupt that fires between rounds must still stop the search within
// one stride of the visits charged when it fired — the replay is refused
// and the list re-scanned to the stride boundary — exactly as a first scan
// (TestInterruptStopsSearchPromptly) is.
func TestInterruptStopsWithinOneStrideOfChargedVisits(t *testing.T) {
	g, h := starGraph("P", 4*interrupt.Stride, "C")
	aux := graph.BuildAux(g)
	p := chainPattern(t, "P", "C")
	sem := labelSemantics{g, p}
	const rounds = 4
	for fireAfter := 1; fireAfter < rounds; fireAfter++ {
		// Visits charged by the end of round fireAfter: MaxBound ends the
		// uncanceled search there.
		_, upTo := Search(aux, p, h, sem, Options{Alpha: 1.0, MaxBound: 1 + fireAfter})
		if upTo.Rounds != fireAfter || upTo.Canceled {
			t.Fatalf("fixture: %+v, want %d uncanceled rounds", upTo, fireAfter)
		}
		done := make(chan struct{})
		_, stats := Search(aux, p, h, sem, Options{
			Alpha: 1.0, MaxBound: 1 + rounds, Interrupt: done,
			onRound: func(r int) {
				if r == fireAfter+1 {
					close(done) // fires as round fireAfter+1 begins
				}
			},
		})
		if !stats.Canceled || stats.VisitsExhausted || stats.Rounds != fireAfter+1 {
			t.Fatalf("fired after round %d: %+v, want Canceled in round %d", fireAfter, stats, fireAfter+1)
		}
		if over := stats.Visited - upTo.Visited; over <= 0 || over > interrupt.Stride {
			t.Fatalf("fired after round %d at %d charged visits, stopped at %d: want within one stride (%d)",
				fireAfter, upTo.Visited, stats.Visited, interrupt.Stride)
		}
	}
}
