// Package exec is the parallel execution layer: one bounded worker-pool
// primitive, which shards the facade's QueryBatch items.
//
// The pool is transient by design: Run spawns at most `workers`
// goroutines, they drain a shared atomic cursor, and they exit when the
// index space is exhausted or the done channel fires. Nothing persists
// between calls — no daemon goroutines to leak from never-closed DBs, no
// global queue to serialize unrelated queries — and a pool of size one
// degenerates to an inline loop with zero goroutine overhead.
//
// Determinism is the caller's contract: eval(i) must write only to slot
// i of its output, so answers are independent of scheduling.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rbq/internal/interrupt"
)

// Run evaluates eval(i) for every i in [0,n) on at most workers
// concurrent goroutines. workers is capped at n; with one worker (or
// fewer) the loop runs inline on the caller's goroutine — no spawn, no
// synchronization — preserving the serial path exactly.
//
// Cancellation is cooperative and prompt: a fired done channel stops
// workers from claiming further indices, so at most `workers` already-
// claimed evaluations finish after the fire (each of which polls done
// internally at the engines' interrupt stride). A nil done never fires.
func Run(done <-chan struct{}, n, workers int, eval func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if interrupt.Fired(done) {
				return
			}
			eval(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || interrupt.Fired(done) {
					return
				}
				eval(i)
			}
		}()
	}
	wg.Wait()
}

// BatchWorkers resolves a QueryBatch workers argument: ≤ 0 asks for one
// worker per CPU (QueryBatch's documented default), anything else
// passes through (Run caps at the item count).
func BatchWorkers(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}
