package simt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count configuration value: n <= 0 selects
// GOMAXPROCS (use every host core the runtime is allowed), any other
// value is returned as-is. It is what ParallelFor does with its
// workers argument.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ParallelFor runs fn(i) for every i in [0, n) across up to workers
// goroutines and returns when all calls completed. workers <= 0 selects
// GOMAXPROCS; workers == 1 (or n == 1) degenerates to a plain loop
// with no goroutine or channel traffic.
//
// It is the one level of host parallelism: independent runs and sweep
// points, each driving its own engines and runtimes. A matching engine
// runs every call on its caller's goroutine, so the warps of one
// simulated kernel never spread over host cores.
//
// The calling goroutine runs iterations itself, helped by workers-1
// goroutines started for the call. Nested calls (fn itself calling
// ParallelFor) start their own goroutines and cannot deadlock.
//
// Determinism contract: iterations must be independent — fn(i) may
// write only state owned by iteration i (its result slot, its engine,
// its runtime). Under that contract the outcome is bit-identical to the
// sequential loop regardless of scheduling, because no iteration
// observes another's writes. Iterations are handed out by an atomic
// counter, so work stays balanced when per-iteration cost is skewed.
//
// A panic in any iteration is re-raised on the caller's goroutine
// after all workers have stopped (first panic in iteration order wins,
// so failures are reproducible). An iteration that calls
// runtime.Goexit (t.Fatal off the test goroutine) ends only its own
// goroutine; the others claim what is left.
func ParallelFor(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = min(Workers(workers), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked = -1
		panicVal any
	)
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked < 0 || i < panicked {
					panicked, panicVal = i, r
				}
				panicMu.Unlock()
			}
		}()
		fn(i)
	}
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			runOne(i)
		}
	}
	wg.Add(workers - 1)
	for h := 1; h < workers; h++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if panicked >= 0 {
		panic(fmt.Sprintf("simt: ParallelFor iteration %d panicked: %v", panicked, panicVal))
	}
}
