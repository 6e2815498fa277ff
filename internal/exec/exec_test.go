package exec

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index must be evaluated exactly once, at every pool width.
func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		const n = 257
		var hits [n]int32
		Run(nil, n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d evaluated %d times", workers, i, h)
			}
		}
	}
}

func TestRunZeroItems(t *testing.T) {
	called := false
	Run(nil, 0, 4, func(int) { called = true })
	if called {
		t.Fatal("eval called with n=0")
	}
}

// The inline path must preserve the serial order (the engines rely on
// this for the workers≤1 degenerate case being byte-for-byte serial).
func TestRunInlineIsOrdered(t *testing.T) {
	var got []int
	Run(nil, 5, 1, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("inline order %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("inline evaluated %d of 5", len(got))
	}
}

// A pre-fired done channel must stop the pool before any claim: zero
// evaluations, on both the inline and the concurrent path.
func TestRunPreFiredClaimsNothing(t *testing.T) {
	done := make(chan struct{})
	close(done)
	for _, workers := range []int{1, 4} {
		var evals int32
		Run(done, 64, workers, func(int) { atomic.AddInt32(&evals, 1) })
		if evals != 0 {
			t.Fatalf("workers=%d: %d evaluations after pre-fired done", workers, evals)
		}
	}
}

// The cancellation-promptness bound at the pool level: once done fires,
// at most `workers` further evaluations may start (the ones already
// claimed race the Fired probe; nothing new is claimed after it is
// observed). This is the "≤ one claim per worker" half of the request
// layer's promptness contract — the per-item half (≤ one interrupt
// stride inside an engine run) is pinned by the engines' own tests.
func TestRunCancellationClaimBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n, workers, fireAt = 10_000, 4, 16
	done := make(chan struct{})
	var evals int32
	Run(done, n, workers, func(int) {
		if atomic.AddInt32(&evals, 1) == fireAt {
			close(done)
		}
	})
	// fireAt evaluations happened before the fire; each of the `workers`
	// goroutines may have claimed at most one more index concurrently
	// with the close.
	if got := atomic.LoadInt32(&evals); got > fireAt+workers {
		t.Fatalf("%d evaluations; want ≤ %d after firing at %d with %d workers",
			got, fireAt+workers, fireAt, workers)
	}
}

func TestBatchWorkers(t *testing.T) {
	if got := BatchWorkers(0); got != runtime.NumCPU() {
		t.Errorf("BatchWorkers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := BatchWorkers(-3); got != runtime.NumCPU() {
		t.Errorf("BatchWorkers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := BatchWorkers(7); got != 7 {
		t.Errorf("BatchWorkers(7) = %d, want 7", got)
	}
}
