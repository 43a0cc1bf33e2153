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
// workers argument; engine configs resolve theirs through WorkersFor.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// fanoutGrain is the work, in simulated lane operations, below which
// an engine's auto fan-out runs inline: handing iterations to pool
// workers costs a wake-up and a wait per call, and on a 2-vCPU host
// that overhead outweighed the parallel gain below about 100 µs of
// sequential work per call. The matrix scan crossed over between
// 32 Ki and 64 Ki units per call and the stream engine's partition
// round between 28 Ki and 84 Ki; 48 Ki sits between both pairs
// (DESIGN §11 has the sweep).
const fanoutGrain = 48 << 10

// WorkersFor resolves an engine's Workers value for one fan-out that
// hands out an estimated work lane operations. workers <= 0 is auto:
// a plain loop (1) below fanoutGrain, GOMAXPROCS at or above it. An
// explicit count, 1 included, is returned unchanged, so tests can
// force either path. Engine results never depend on the choice (see
// ParallelFor's determinism contract), only host time does.
func WorkersFor(workers, work int) int {
	if workers > 0 {
		return workers
	}
	if work < fanoutGrain {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor runs fn(i) for every i in [0, n) across up to workers
// goroutines and returns when all calls completed. workers <= 0 selects
// GOMAXPROCS whatever the work; workers == 1 (or n == 1) degenerates to
// a plain loop with no goroutine or channel traffic, so the sequential
// path stays the zero-overhead baseline. Engines pass
// WorkersFor(cfg.Workers, work), which turns an auto setting into that
// plain loop when the call is too small to pay for the hand-off.
//
// The calling goroutine runs iterations itself and is helped by idle
// workers of a process-wide pool (see workerPool), so a steady-state
// call allocates nothing. A call takes only workers that are idle at
// that moment and never waits for one, which keeps nested calls (fn
// itself calling ParallelFor) deadlock-free: a call with no idle helper
// runs all its iterations on the caller.
//
// Determinism contract: iterations must be independent — fn(i) may
// write only state owned by iteration i (its result slot, its CTA, its
// partition). Under that contract the outcome is bit-identical to the
// sequential loop regardless of scheduling, because no iteration
// observes another's writes. Iterations are handed out by an atomic
// counter, so work stays balanced when per-iteration cost is skewed.
//
// A panic in any iteration is re-raised on the caller's goroutine
// after all workers have stopped (first panic in iteration order wins,
// so failures are reproducible).
func ParallelFor(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n > 1 && workers != 1 {
		workers = min(Workers(workers), n)
	}
	if n == 1 || workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	j := pool.job()
	j.fn, j.n, j.panicked = fn, n, -1
	j.next.Store(0)
	for h := 1; h < workers; h++ {
		jobs := pool.idleHelper()
		if jobs == nil {
			break
		}
		j.wg.Add(1)
		jobs <- j
	}
	j.run()
	j.wg.Wait()
	panicked, panicVal := j.panicked, j.panicVal
	j.fn, j.panicVal = nil, nil
	pool.putJob(j)
	if panicked >= 0 {
		panic(fmt.Sprintf("simt: ParallelFor iteration %d panicked: %v", panicked, panicVal))
	}
}

// parJob is one ParallelFor call's shared state. Jobs are recycled
// through the pool's free list, so a call allocates one only when more
// calls are in flight at once (nested or concurrent) than ever before.
type parJob struct {
	fn       func(i int)
	n        int
	next     atomic.Int64
	wg       sync.WaitGroup // helpers still running the job
	panicMu  sync.Mutex
	panicked int
	panicVal any
}

// run claims and executes iterations until none are left, recording
// the lowest-numbered panicking iteration.
func (j *parJob) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.runOne(i)
	}
}

func (j *parJob) runOne(i int) {
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if j.panicked < 0 || i < j.panicked {
				j.panicked, j.panicVal = i, r
			}
			j.panicMu.Unlock()
		}
	}()
	j.fn(i)
}

// helper is a persistent pool goroutine serving jobs from its own
// channel. The channel has capacity one and is empty whenever the
// helper is on the idle list, so handing it a job never blocks.
func helper(jobs chan *parJob) {
	var j *parJob
	defer func() {
		// Reached only if fn called runtime.Goexit (t.Fatal off the
		// test goroutine): the helper is gone, so free its pool slot
		// and release the caller, whose own loop claims what is left.
		pool.mu.Lock()
		pool.started--
		pool.mu.Unlock()
		j.wg.Done()
	}()
	for j = range jobs {
		j.run()
		// Rejoin the idle list before signalling completion, so the
		// caller's next ParallelFor finds this helper ready.
		pool.mu.Lock()
		pool.idle = append(pool.idle, jobs)
		pool.mu.Unlock()
		j.wg.Done()
	}
}

// workerPool holds the helpers and recycled jobs shared by every
// ParallelFor call. Helpers start lazily, at most GOMAXPROCS-1 of them
// (the caller is the remaining worker), and then live for the life of
// the process.
type workerPool struct {
	mu      sync.Mutex
	idle    []chan *parJob
	started int
	free    []*parJob
}

var pool workerPool

// idleHelper takes an idle helper's channel, starting a new helper
// while fewer than GOMAXPROCS-1 exist, or returns nil when every
// helper is busy.
func (p *workerPool) idleHelper() chan *parJob {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.idle); k > 0 {
		jobs := p.idle[k-1]
		p.idle = p.idle[:k-1]
		return jobs
	}
	if p.started >= runtime.GOMAXPROCS(0)-1 {
		return nil
	}
	p.started++
	jobs := make(chan *parJob, 1)
	go helper(jobs)
	return jobs
}

func (p *workerPool) job() *parJob {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.free); k > 0 {
		j := p.free[k-1]
		p.free = p.free[:k-1]
		return j
	}
	return new(parJob)
}

func (p *workerPool) putJob(j *parJob) {
	p.mu.Lock()
	p.free = append(p.free, j)
	p.mu.Unlock()
}
