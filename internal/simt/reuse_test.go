package simt

import (
	"math/rand"
	"testing"
)

// memOps applies a seeded random sequence of every memory operation to
// m and returns a log of what each one returned, so two memories fed
// the same sequence can be compared operation by operation.
func memOps(m *Memory, rng *rand.Rand, n int) []uint64 {
	var log []uint64
	size := m.Len()
	val := func() uint64 {
		if rng.Intn(4) == 0 {
			return 0 // writes of zero must not look like stale words
		}
		return rng.Uint64()
	}
	for i := 0; i < n; i++ {
		a := rng.Intn(size)
		switch rng.Intn(5) {
		case 0:
			m.Store(a, val())
		case 1:
			log = append(log, m.Load(a))
		case 2:
			// Compare against the current value half the time, so both
			// outcomes occur.
			old := val()
			if rng.Intn(2) == 0 {
				old = m.Load(a)
			}
			prev, ok := m.CAS(a, old, val())
			if ok {
				log = append(log, prev, 1)
			} else {
				log = append(log, prev, 0)
			}
		case 3:
			k := rng.Intn(size - a + 1)
			m.Fill(a, k, val())
		case 4:
			k := rng.Intn(size - a + 1)
			s := m.Slice(a, k)
			log = append(log, s...)
			if k > 0 {
				s[rng.Intn(k)] = val() // the slice aliases the memory
			}
		}
	}
	return log
}

// words reads every word of m through Load and through Slice.
func words(m *Memory) (loaded, sliced []uint64) {
	loaded = make([]uint64, m.Len())
	for a := range loaded {
		loaded[a] = m.Load(a)
	}
	return loaded, append([]uint64(nil), m.Slice(0, m.Len())...)
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMemoryReuseMatchesFresh dirties one memory with random operation
// sequences, zeroes it, and checks after each Zero that it reads like
// a fresh memory and then behaves like one under the next sequence.
// 600 rounds cross the 8-bit generation wrap twice.
func TestMemoryReuseMatchesFresh(t *testing.T) {
	const size = 97
	for _, view := range []bool{false, true} {
		reused := NewMemory(size)
		if view {
			reused = Wrap(make([]uint64, size))
		}
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 600; round++ {
			fresh := NewMemory(size)
			seed := rng.Int63()
			n := rng.Intn(40)
			gotLog := memOps(reused, rand.New(rand.NewSource(seed)), n)
			wantLog := memOps(fresh, rand.New(rand.NewSource(seed)), n)
			if !equalWords(gotLog, wantLog) {
				t.Fatalf("view=%v round %d: reused memory returned %v, fresh %v", view, round, gotLog, wantLog)
			}
			gotL, gotS := words(reused)
			wantL, wantS := words(fresh)
			if !equalWords(gotL, wantL) || !equalWords(gotS, wantS) {
				t.Fatalf("view=%v round %d: reused memory reads %v / %v, fresh %v / %v", view, round, gotL, gotS, wantL, wantS)
			}
			reused.Zero()
			if l, s := words(reused); !equalWords(l, make([]uint64, size)) || !equalWords(s, make([]uint64, size)) {
				t.Fatalf("view=%v round %d: memory reads %v / %v after Zero", view, round, l, s)
			}
		}
	}
}

// TestMemoryZeroWrapClears pins the generation wrap: a word written in
// generation g must still read as zero 256 Zeros later, when the 8-bit
// generation counter is back at g.
func TestMemoryZeroWrapClears(t *testing.T) {
	m := NewMemory(4)
	m.Zero()
	m.Store(1, 42)
	for i := 0; i < 256; i++ {
		m.Zero()
		if got := m.Load(1); got != 0 {
			t.Fatalf("after %d Zeros word reads %d, want 0", i+1, got)
		}
	}
	m.Store(2, 9)
	if m.Load(2) != 9 || m.Load(1) != 0 {
		t.Fatal("memory misbehaves after the generation wrap")
	}
}

// ctaOps runs a seeded random kernel on c: shared-memory stores and
// loads through warps, CASes and fills on the arena, narrowed masks and
// barriers. It returns every value the kernel read.
func ctaOps(c *CTA, rng *rand.Rand) []uint64 {
	var log []uint64
	size := c.Shared.Len()
	for i := 0; i < 30; i++ {
		w := c.Warp(rng.Intn(c.NumWarps()))
		base := rng.Intn(size)
		switch rng.Intn(5) {
		case 0:
			var src [LaneCount]uint64
			v := rng.Uint64()
			for lane := range src {
				src[lane] = v ^ uint64(lane)
			}
			w.StoreSharedRange(c.Shared, base%(size-LaneCount+1), &src)
		case 1:
			var dst [LaneCount]uint64
			w.LoadSharedStrided(c.Shared, base%(size-2*(LaneCount-1)), 2, &dst)
			log = append(log, dst[:]...)
		case 2:
			prev, _ := c.Shared.CAS(base, c.Shared.Load(base), rng.Uint64())
			log = append(log, prev)
		case 3:
			w.SetActive(rng.Uint32())
		case 4:
			c.SyncThreads()
			c.Shared.Fill(base, rng.Intn(size-base+1), rng.Uint64())
		}
	}
	return log
}

// TestCTAReuseMatchesFresh reuses one CTA through a CTACache across
// 300 random kernels (crossing the generation wrap) and checks that
// each reused CTA starts like a fresh one and runs each kernel to the
// same reads, counters, masks and shared memory.
func TestCTAReuseMatchesFresh(t *testing.T) {
	const threads, sharedWords = 100, 70
	var cc CTACache
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		reused := cc.Get(0, threads, sharedWords)
		fresh := NewCTA(0, threads, sharedWords)
		seed := rng.Int63()
		gotLog := ctaOps(reused, rand.New(rand.NewSource(seed)))
		wantLog := ctaOps(fresh, rand.New(rand.NewSource(seed)))
		if !equalWords(gotLog, wantLog) {
			t.Fatalf("round %d: reused CTA read %v, fresh %v", round, gotLog, wantLog)
		}
		if reused.Counters() != fresh.Counters() {
			t.Fatalf("round %d: counters %+v, fresh %+v", round, reused.Counters(), fresh.Counters())
		}
		for i := 0; i < fresh.NumWarps(); i++ {
			if reused.Warp(i).Active() != fresh.Warp(i).Active() {
				t.Fatalf("round %d: warp %d mask %#x, fresh %#x", round, i, reused.Warp(i).Active(), fresh.Warp(i).Active())
			}
		}
		gotL, gotS := words(reused.Shared)
		wantL, wantS := words(fresh.Shared)
		if !equalWords(gotL, wantL) || !equalWords(gotS, wantS) {
			t.Fatalf("round %d: shared memory differs from a fresh CTA's", round)
		}
	}
}
