package simt

import (
	"math/rand"
	"testing"
)

// The lane-array forms must bill, read and write exactly what their
// closure reference does (closure_test.go) with the equivalent
// per-lane address: same memory afterwards, same counters, same
// values in the active lanes, and the inactive lanes' entries left
// alone.

const propTrials = 2000

// pair is one warp and memory per side of a comparison, set up alike.
type pair struct {
	ref, lf   *Warp
	rc, lc    *Counters
	refM, lfM *Memory
	refD, lfD [LaneCount]uint64 // destination registers, seeded alike
	mask      uint32
}

// newPair draws a seeded mask and fills both memories of size words
// with the same random words (some zero) and both destinations with the
// same garbage, so untouched inactive lanes show up.
func newPair(rng *rand.Rand, trial, size int) *pair {
	p := &pair{mask: seededMask(rng, trial)}
	p.ref, p.rc = newTestWarp()
	p.lf, p.lc = newTestWarp()
	p.ref.SetActive(p.mask)
	p.lf.SetActive(p.mask)
	p.refM, p.lfM = NewMemory(size), NewMemory(size)
	if trial%2 == 0 { // a reset CTA's shared memory carries stamps
		p.refM.Zero()
		p.lfM.Zero()
	}
	for a := 0; a < size; a++ {
		v := rng.Uint64()
		if rng.Intn(4) == 0 {
			v = 0
		}
		p.refM.Store(a, v)
		p.lfM.Store(a, v)
	}
	for l := range p.refD {
		p.refD[l] = rng.Uint64()
	}
	p.lfD = p.refD
	return p
}

// check compares both sides' counters, memories and destinations.
func (p *pair) check(t *testing.T, trial int, what string) {
	t.Helper()
	if *p.rc != *p.lc {
		t.Fatalf("trial %d %s (mask %#x): counters %+v, reference %+v", trial, what, p.mask, *p.lc, *p.rc)
	}
	for a := 0; a < p.refM.Len(); a++ {
		if p.refM.Load(a) != p.lfM.Load(a) {
			t.Fatalf("trial %d %s (mask %#x): memory[%d] = %#x, reference %#x", trial, what, p.mask, a, p.lfM.Load(a), p.refM.Load(a))
		}
	}
	if p.refD != p.lfD {
		t.Fatalf("trial %d %s (mask %#x): registers %v, reference %v", trial, what, p.mask, p.lfD, p.refD)
	}
}

// rangeBase returns a base at offset trial%16 within a random segment,
// so every alignment against the 128-byte segments occurs.
func rangeBase(rng *rand.Rand, trial int) int {
	return trial%SegmentWords + SegmentWords*rng.Intn(4)
}

func TestLoadGlobalRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < propTrials; trial++ {
		base := rangeBase(rng, trial)
		p := newPair(rng, trial, base+LaneCount)
		refLoadGlobal(p.ref, p.refM, func(lane int) int { return base + lane }, func(lane int, v uint64) { p.refD[lane] = v })
		p.lf.LoadGlobalRange(p.lfM, base, &p.lfD)
		p.check(t, trial, "LoadGlobalRange")
	}
}

func TestStoreSharedRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < propTrials; trial++ {
		base := rangeBase(rng, trial)
		p := newPair(rng, trial, base+LaneCount)
		src := p.refD
		refStoreShared(p.ref, p.refM, func(lane int) int { return base + lane }, func(lane int) uint64 { return src[lane] })
		p.lf.StoreSharedRange(p.lfM, base, &src)
		p.check(t, trial, "StoreSharedRange")
	}
}

func TestLoadSharedStridedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < propTrials; trial++ {
		// Odd and even strides alternate; 0 (broadcast), 32 and 64 (one
		// bank) and the padded 33 and 129 come up among them.
		stride := []int{0, 1, 2, 32, 33, 64, 129}[trial%7]
		if trial%3 == 0 {
			stride = rng.Intn(70)
		}
		base := rng.Intn(3 * bankCount)
		p := newPair(rng, trial, base+(LaneCount-1)*stride+1)
		refLoadShared(p.ref, p.refM, func(lane int) int { return base + lane*stride }, func(lane int, v uint64) { p.refD[lane] = v })
		p.lf.LoadSharedStrided(p.lfM, base, stride, &p.lfD)
		p.check(t, trial, "LoadSharedStrided")
	}
}

func TestStoreGlobalPackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < propTrials; trial++ {
		base := rangeBase(rng, trial)
		p := newPair(rng, trial, base+LaneCount)
		src, mask := p.refD, p.mask
		refStoreGlobal(p.ref, p.refM,
			func(lane int) int { return base + Popc(mask&(LaneMask(lane)-1)) },
			func(lane int) uint64 { return src[lane] })
		p.lf.StoreGlobalPacked(p.lfM, base, &src)
		p.check(t, trial, "StoreGlobalPacked")
	}
}

// gatherAddrs draws per-lane addresses below size: random ones,
// duplicates of a few words, pairs straddling a segment boundary, or a
// contiguous run.
func gatherAddrs(rng *rand.Rand, trial, size int) (addr [LaneCount]int) {
	for l := range addr {
		switch trial % 4 {
		case 0:
			addr[l] = rng.Intn(size)
		case 1:
			addr[l] = rng.Intn(3) * 7
		case 2:
			addr[l] = SegmentWords*(1+rng.Intn(size/SegmentWords-1)) - rng.Intn(2)
		default:
			addr[l] = l
		}
	}
	return addr
}

func TestLoadGlobalGatherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < propTrials; trial++ {
		const size = 8 * SegmentWords
		p := newPair(rng, trial, size)
		addr := gatherAddrs(rng, trial, size)
		refLoadGlobal(p.ref, p.refM, func(lane int) int { return addr[lane] }, func(lane int, v uint64) { p.refD[lane] = v })
		p.lf.LoadGlobalGather(p.lfM, &addr, &p.lfD)
		p.check(t, trial, "LoadGlobalGather")
	}
}

func TestAtomicCASMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < propTrials; trial++ {
		const size = 8 * SegmentWords
		p := newPair(rng, trial, size)
		addr := gatherAddrs(rng, trial, size)
		// Half the lanes compare against the word they target, so some
		// swaps succeed; under contention only the first of those can.
		var old, new [LaneCount]uint64
		for l := range old {
			old[l], new[l] = rng.Uint64(), rng.Uint64()
			if rng.Intn(2) == 0 {
				old[l] = p.refM.Load(addr[l])
			}
		}
		var want uint32
		refAtomicCAS(p.ref, p.refM, func(lane int) int { return addr[lane] },
			func(lane int) uint64 { return old[lane] }, func(lane int) uint64 { return new[lane] },
			func(lane int, _ uint64, ok bool) {
				if ok {
					want |= LaneMask(lane)
				}
			})
		if got := p.lf.AtomicCAS(p.lfM, &addr, &old, &new); got != want {
			t.Fatalf("trial %d (mask %#x): swapped %#x, reference %#x", trial, p.mask, got, want)
		}
		p.check(t, trial, "AtomicCAS")
	}
	// Every active lane contends for one empty word: the lowest wins.
	rng = rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		mask := seededMask(rng, trial)
		w, _ := newTestWarp()
		w.SetActive(mask)
		m := NewMemory(1)
		var addr [LaneCount]int
		var old, new [LaneCount]uint64
		for l := range new {
			new[l] = uint64(l + 1)
		}
		got := w.AtomicCAS(m, &addr, &old, &new)
		if want := mask & -mask; got != want || (mask != 0 && m.Load(0) != uint64(Ffs(mask))) {
			t.Fatalf("mask %#x: winners %#x, word %d; want lowest lane %#x", mask, got, m.Load(0), want)
		}
	}
}

// TestCompactOffsets checks the ballot-prefix compaction offsets a
// packed store applies: the k-th kept lane lands at offset k, and
// dropped lanes write nothing.
func TestCompactOffsets(t *testing.T) {
	w, _ := newTestWarp()
	var keep uint32
	var src [LaneCount]uint64
	for lane := range src {
		src[lane] = uint64(lane) + 1
		if lane%3 == 0 {
			keep |= LaneMask(lane)
		}
	}
	m := NewMemory(LaneCount)
	w.SetActive(w.BallotMask(keep))
	w.StoreGlobalPacked(m, 0, &src)
	if kept := Popc(w.Active()); kept != 11 { // lanes 0,3,...,30
		t.Fatalf("kept = %d, want 11", kept)
	}
	for off := 0; off < LaneCount; off++ {
		want := uint64(0)
		if off < 11 {
			want = uint64(3*off) + 1
		}
		if got := m.Load(off); got != want {
			t.Errorf("offset %d holds %d, want %d", off, got, want)
		}
	}
}

// TestWarpOpsBillInstructions checks that each lane-array primitive
// bills one instruction of its class whatever lanes are active.
func TestWarpOpsBillInstructions(t *testing.T) {
	m := NewMemory(4 * LaneCount)
	var addr [LaneCount]int
	var v [LaneCount]uint64
	ops := []struct {
		name  string
		op    func(w *Warp)
		field func(c *Counters) uint64
	}{
		{"LoadGlobalRange", func(w *Warp) { w.LoadGlobalRange(m, 3, &v) }, func(c *Counters) uint64 { return c.GMemLoad }},
		{"LoadGlobalGather", func(w *Warp) { w.LoadGlobalGather(m, &addr, &v) }, func(c *Counters) uint64 { return c.GMemLoad }},
		{"StoreGlobalPacked", func(w *Warp) { w.StoreGlobalPacked(m, 3, &v) }, func(c *Counters) uint64 { return c.GMemStore }},
		{"AtomicCAS", func(w *Warp) { w.AtomicCAS(m, &addr, &v, &v) }, func(c *Counters) uint64 { return c.Atomic }},
		{"LoadSharedStrided", func(w *Warp) { w.LoadSharedStrided(m, 3, 2, &v) }, func(c *Counters) uint64 { return c.SMemLoad }},
		{"StoreSharedRange", func(w *Warp) { w.StoreSharedRange(m, 3, &v) }, func(c *Counters) uint64 { return c.SMemStore }},
	}
	for _, o := range ops {
		for _, mask := range []uint32{0, 1, 0xF0F0, FullMask} {
			w, c := newTestWarp()
			w.SetActive(mask)
			o.op(w)
			if got := o.field(c); got != 1 {
				t.Errorf("%s under mask %#x billed %d instructions, want 1", o.name, mask, got)
			}
		}
	}
}

// TestLaneArrayFormsZeroAlloc: no lane-array primitive allocates, on a
// stamped memory or a wrapped view, under a partial or a full mask.
func TestLaneArrayFormsZeroAlloc(t *testing.T) {
	stamped := NewMemory(8 * LaneCount)
	stamped.Zero()
	view := Wrap(make([]uint64, 8*LaneCount))
	var addr [LaneCount]int
	for l := range addr {
		addr[l] = 5 * l
	}
	var v [LaneCount]uint64
	var cw Counters
	w := NewWarp(0, &cw)
	for _, m := range []*Memory{stamped, view} {
		for _, mask := range []uint32{0x0FF00FF0, FullMask} {
			w.SetActive(mask)
			for name, op := range map[string]func(){
				"LoadGlobalRange":   func() { w.LoadGlobalRange(m, 7, &v) },
				"LoadGlobalGather":  func() { w.LoadGlobalGather(m, &addr, &v) },
				"StoreGlobalPacked": func() { w.StoreGlobalPacked(m, 7, &v) },
				"AtomicCAS":         func() { w.AtomicCAS(m, &addr, &v, &v) },
				"LoadSharedStrided": func() { w.LoadSharedStrided(m, 7, 4, &v) },
				"StoreSharedRange":  func() { w.StoreSharedRange(m, 7, &v) },
			} {
				if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
					t.Errorf("%s (mask %#x) allocates %.1f times per call, want 0", name, mask, allocs)
				}
			}
		}
	}
}
