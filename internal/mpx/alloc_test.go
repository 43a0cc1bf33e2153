package mpx

import (
	"fmt"
	"math/rand"
	"testing"

	"simtmp/internal/envelope"
)

// residueLoop is a closed loop of 64-message batches over 4 GPUs: the
// sends go between seeded GPU pairs with tags unique in the batch,
// half the receives are posted before one Progress, so the other
// half's messages stay in the unexpected queue as residue the engine
// must compact, and the rest are posted before a Drain.
type residueLoop struct {
	rt       *Runtime
	rnd      *rand.Rand
	batches  int
	src, dst [64]int
}

func (l *residueLoop) batch() {
	const n, gpus = 64, 4
	base := envelope.Tag(l.batches * n % (int(envelope.MaxTag) + 1))
	for i := 0; i < n; i++ {
		l.src[i] = l.rnd.Intn(gpus)
		l.dst[i] = (l.src[i] + 1 + l.rnd.Intn(gpus-1)) % gpus
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

// TestUnorderedBatchAllocsOnlyRecvHandles pins what a steady-state
// runtime batch allocates: one Recv handle per posted receive and
// nothing else. Send frames come from the runtime's free list, which
// the acks refill, and the hash engine adds nothing.
func TestUnorderedBatchAllocsOnlyRecvHandles(t *testing.T) {
	l := &residueLoop{rt: New(Config{Level: Unordered, GPUs: 4}), rnd: rand.New(rand.NewSource(1))}
	for i := 0; i < 64; i++ { // warm the free list and scratch
		l.batch()
	}
	if got := testing.AllocsPerRun(50, l.batch); got > 64 {
		t.Errorf("Unordered 64-message batch allocates %v objects, want at most 64 (one Recv per message)", got)
	}
}
