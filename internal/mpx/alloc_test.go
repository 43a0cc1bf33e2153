package mpx

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"simtmp/internal/envelope"
)

// residueLoop is a closed loop of 64-message batches over 4 GPUs: the
// sends go between seeded GPU pairs with tags unique in the batch,
// half the receives are posted before one Progress, so the other
// half's messages stay in the unexpected queue as residue the engine
// must compact, and the rest are posted before a Drain. With repeat
// set, every batch reuses the first batch's pairs, so each batch has
// the same shape.
type residueLoop struct {
	rt       *Runtime
	rnd      *rand.Rand
	repeat   bool
	batches  int
	src, dst [64]int
}

func (l *residueLoop) batch() {
	const n, gpus = 64, 4
	base := envelope.Tag(l.batches * n % (int(envelope.MaxTag) + 1))
	for i := 0; i < n; i++ {
		if !l.repeat || l.batches == 0 {
			l.src[i] = l.rnd.Intn(gpus)
			l.dst[i] = (l.src[i] + 1 + l.rnd.Intn(gpus-1)) % gpus
		}
		if err := l.rt.Send(l.src[i], l.dst[i], base+envelope.Tag(i), 0, nil); err != nil {
			panic(err)
		}
	}
	post := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := l.rt.PostRecv(l.dst[i], envelope.Rank(l.src[i]), base+envelope.Tag(i), 0); err != nil {
				panic(err)
			}
		}
	}
	post(0, n/2)
	if err := l.rt.Progress(); err != nil {
		panic(err)
	}
	post(n/2, n)
	if done, err := l.rt.Drain(1000); !done || err != nil {
		panic(fmt.Sprint("drain: ", done, err))
	}
	l.batches++
}

// TestMatchingEngineAddsNoAllocsPerBatch guards the zero-allocation
// contract at the runtime level, on the path the runtime really takes:
// a FullMPI batch, whose matrix engine compacts the unexpected-queue
// residue after every pass, may allocate no more than an Unordered
// batch of the same shape, whose hash engine never compacts. What both
// share (send frames, receive handles) is the runtime's own cost; the
// matching engine must add nothing.
func TestMatchingEngineAddsNoAllocsPerBatch(t *testing.T) {
	perBatch := func(level Level) float64 {
		l := &residueLoop{rt: New(Config{Level: level, GPUs: 4}), rnd: rand.New(rand.NewSource(1))}
		for i := 0; i < 64; i++ { // warm pools and scratch
			l.batch()
		}
		return testing.AllocsPerRun(50, l.batch)
	}
	full, unordered := perBatch(FullMPI), perBatch(Unordered)
	t.Logf("allocs per 64-message batch: FullMPI %v, Unordered %v", full, unordered)
	if full > unordered {
		t.Errorf("FullMPI batch allocates %v objects, Unordered %v: the matrix engine adds %v per batch, want 0",
			full, unordered, full-unordered)
	}
}

// TestRuntimeBatchAllocsAtMostOneSlab pins what a steady-state
// runtime batch allocates: at most one object per 64-message batch —
// the Recv slab its 64 posts draw from. Send frames come from the
// runtime's free list, which the acks refill, in-order arrivals never
// touch a reorder ring, and the engines add nothing. It counts with
// runtime.MemStats over whole windows of batches rather than
// testing.AllocsPerRun's per-run average, so that it can keep the
// quietest of three windows (see below). Every batch has the same
// shape: with random shapes, the runtime's and the engines' reused
// buffers keep growing to new high-water marks, an amortized cost
// rather than a per-batch one.
func TestRuntimeBatchAllocsAtMostOneSlab(t *testing.T) {
	for _, level := range []Level{Unordered, FullMPI, StreamOrdered} {
		t.Run(level.String(), func(t *testing.T) {
			l := &residueLoop{rt: New(Config{Level: level, GPUs: 4}), rnd: rand.New(rand.NewSource(1)), repeat: true}
			for i := 0; i < 64; i++ { // warm the free list and scratch
				l.batch()
			}
			// The quietest of three windows: an allocation per batch shows
			// in every window, while a one-off growth of a reused buffer
			// lands in one (the tags change every batch, so a reused
			// buffer can still reach a new high-water mark late).
			const batches = 50
			got := ^uint64(0)
			for w := 0; w < 3; w++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < batches; i++ {
					l.batch()
				}
				runtime.ReadMemStats(&after)
				got = min(got, after.Mallocs-before.Mallocs)
			}
			if got > batches {
				t.Errorf("%d 64-message batches allocate %d objects at GOMAXPROCS=%d, want at most %d (one Recv slab each)",
					batches, got, runtime.GOMAXPROCS(0), batches)
			}
		})
	}
}
