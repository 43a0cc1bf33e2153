package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simtmp/internal/envelope"
	"simtmp/internal/simt"
)

func packedEnv(src, tag int) uint64 {
	return envelope.Envelope{Src: envelope.Rank(src), Tag: envelope.Tag(tag)}.Pack()
}

func TestPushAtLen(t *testing.T) {
	m := simt.NewMemory(64)
	q := New(m, 8, 16)
	if q.Cap() != 16 || q.Len() != 0 {
		t.Fatalf("fresh queue: cap=%d len=%d", q.Cap(), q.Len())
	}
	for i := 0; i < 16; i++ {
		if err := q.Push(packedEnv(i, 0)); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	if err := q.Push(packedEnv(99, 0)); err == nil {
		t.Error("Push on full queue succeeded")
	}
	if q.Len() != 16 {
		t.Errorf("Len = %d, want 16", q.Len())
	}
	e, ok := envelope.UnpackEnvelope(q.At(7))
	if !ok || e.Src != 7 {
		t.Errorf("At(7) = %v, %v", e, ok)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := simt.NewMemory(16)
	q := New(m, 0, 8)
	q.Push(packedEnv(1, 1))
	for _, i := range []int{-1, 1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			q.At(i)
		}()
	}
}

func TestNewBadRegionPanics(t *testing.T) {
	m := simt.NewMemory(16)
	defer func() {
		if recover() == nil {
			t.Error("New beyond memory did not panic")
		}
	}()
	New(m, 8, 16)
}

func TestClearLiveReset(t *testing.T) {
	m := simt.NewMemory(32)
	q := New(m, 0, 16)
	for i := 0; i < 10; i++ {
		q.Push(packedEnv(i, 0))
	}
	q.Clear(3)
	q.Clear(7)
	if q.Live() != 8 {
		t.Errorf("Live = %d, want 8", q.Live())
	}
	if q.Valid(3) || !q.Valid(4) {
		t.Error("Valid flags wrong after Clear")
	}
	q.Reset()
	if q.Len() != 0 || q.Live() != 0 {
		t.Error("Reset did not empty queue")
	}
}

func TestCompactHostPreservesOrder(t *testing.T) {
	m := simt.NewMemory(32)
	q := New(m, 0, 16)
	for i := 0; i < 10; i++ {
		q.Push(packedEnv(i, 0))
	}
	for _, i := range []int{0, 4, 9} {
		q.Clear(i)
	}
	n := q.CompactHost()
	if n != 7 || q.Len() != 7 {
		t.Fatalf("CompactHost = %d, len=%d, want 7", n, q.Len())
	}
	want := []int{1, 2, 3, 5, 6, 7, 8}
	for i, src := range want {
		e, _ := envelope.UnpackEnvelope(q.At(i))
		if int(e.Src) != src {
			t.Errorf("entry %d: src=%d, want %d", i, e.Src, src)
		}
	}
}

func TestCompactSIMTMatchesHost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300) + 1
		memA, memB := simt.NewMemory(n+8), simt.NewMemory(n+8)
		qa, qb := New(memA, 4, n), New(memB, 4, n)
		for i := 0; i < n; i++ {
			w := packedEnv(i, rng.Intn(100))
			qa.Push(w)
			qb.Push(w)
		}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				qa.Clear(i)
				qb.Clear(i)
			}
		}
		cta := simt.NewCTA(0, 128, 64)
		na := qa.Compact(cta)
		nb := qb.CompactHost()
		if na != nb {
			t.Fatalf("trial %d: SIMT compact len %d, host %d", trial, na, nb)
		}
		for i := 0; i < na; i++ {
			if qa.At(i) != qb.At(i) {
				t.Fatalf("trial %d: entry %d differs: %#x vs %#x", trial, i, qa.At(i), qb.At(i))
			}
		}
	}
}

// TestCompactReusedMatchesFresh pins the allocation-free reuse path the
// matrix engine's compaction takes: a queue re-Init'ed over dirty
// memory, compacted on a CTA handed back by CTACache.Get after earlier
// use, must produce the entries and the counters of a New queue
// compacted on a NewCTA. Sizes cover the empty queue, one entry, a
// partial tile, exactly one 1024-thread tile and several tiles.
func TestCompactReusedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var cc simt.CTACache
	dirty := simt.NewMemory(4096)
	var reused Queue
	for _, n := range []int{0, 1, 31, 1024, 1025, 3000} {
		for trial := 0; trial < 3; trial++ {
			words := make([]uint64, n)
			for i := range words {
				if rng.Intn(3) != 0 { // a zero word is a bubble
					words[i] = packedEnv(i, rng.Intn(100))
				}
			}
			fresh := New(simt.NewMemory(n), 0, n)
			reused.Init(dirty, 0, n)
			for _, w := range words {
				fresh.Push(w)
				reused.Push(w)
			}
			freshCTA := simt.NewCTA(0, 1024, simt.MaxWarpsPerCTA)
			cachedCTA := cc.Get(0, 1024, simt.MaxWarpsPerCTA)
			nf, nr := fresh.Compact(freshCTA), reused.Compact(cachedCTA)
			if nf != nr {
				t.Fatalf("n=%d trial %d: reused kept %d, fresh %d", n, trial, nr, nf)
			}
			for i := 0; i < nf; i++ {
				if fresh.At(i) != reused.At(i) {
					t.Fatalf("n=%d trial %d: entry %d = %#x, fresh %#x", n, trial, i, reused.At(i), fresh.At(i))
				}
			}
			if err := reused.Invariants(); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			if fc, rc := freshCTA.Counters(), cachedCTA.Counters(); fc != rc {
				t.Fatalf("n=%d trial %d: reused counters %+v, fresh %+v", n, trial, rc, fc)
			}
			// Leave the cached CTA dirty for the next Get.
			cachedCTA.Warp(0).SetActive(0x3)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		reused.Init(dirty, 0, 3000)
		for i := 0; i < 3000; i += 2 {
			reused.Push(packedEnv(i, 1))
			reused.Push(0)
		}
		reused.Compact(cc.Get(0, 1024, simt.MaxWarpsPerCTA))
	}); allocs != 0 {
		t.Errorf("reused Init+Compact allocates %v per call, want 0", allocs)
	}
}

func TestCompactSIMTBillsInstructions(t *testing.T) {
	m := simt.NewMemory(128)
	q := New(m, 0, 100)
	for i := 0; i < 100; i++ {
		q.Push(packedEnv(i, 0))
	}
	q.Clear(50)
	cta := simt.NewCTA(0, 1024, 64)
	q.Compact(cta)
	c := cta.Counters()
	if c.GMemLoad == 0 || c.GMemStore == 0 || c.Ballot == 0 || c.Sync == 0 {
		t.Errorf("compaction billed no work: %+v", c)
	}
}

func TestCompactSIMTAllBubbles(t *testing.T) {
	m := simt.NewMemory(64)
	q := New(m, 0, 32)
	for i := 0; i < 20; i++ {
		q.Push(packedEnv(i, 0))
	}
	for i := 0; i < 20; i++ {
		q.Clear(i)
	}
	cta := simt.NewCTA(0, 64, 8)
	if n := q.Compact(cta); n != 0 {
		t.Errorf("Compact of all-bubbles = %d, want 0", n)
	}
}

func TestCompactSIMTEmptyQueue(t *testing.T) {
	m := simt.NewMemory(16)
	q := New(m, 0, 8)
	cta := simt.NewCTA(0, 32, 4)
	if n := q.Compact(cta); n != 0 {
		t.Errorf("Compact of empty = %d, want 0", n)
	}
}

func TestCompactProperty(t *testing.T) {
	// Property: after Compact, Live == Len and the surviving
	// subsequence equals the pre-compaction live subsequence.
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size)%200 + 1
		m := simt.NewMemory(n + 4)
		q := New(m, 0, n)
		var live []uint64
		for i := 0; i < n; i++ {
			w := packedEnv(i, 0)
			q.Push(w)
		}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				q.Clear(i)
			} else {
				live = append(live, q.At(i))
			}
		}
		cta := simt.NewCTA(0, 96, 16)
		q.Compact(cta)
		if q.Len() != len(live) || q.Live() != len(live) {
			return false
		}
		for i, w := range live {
			if q.At(i) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInvariantsHoldThroughLifecycle(t *testing.T) {
	m := simt.NewMemory(64)
	q := New(m, 8, 16)
	check := func(stage string) {
		t.Helper()
		if err := q.Invariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	check("fresh")
	for i := 0; i < 12; i++ {
		q.Push(packedEnv(i, 0))
	}
	check("pushed")
	q.Clear(2)
	q.Clear(9)
	check("cleared")
	live := q.Live()
	q.CompactHost()
	check("compacted")
	if err := q.VerifyCompacted(live); err != nil {
		t.Fatal(err)
	}
	q.Reset()
	check("reset")
}

func TestInvariantsDetectCorruption(t *testing.T) {
	m := simt.NewMemory(32)
	q := New(m, 0, 16)
	q.Push(packedEnv(1, 1))
	// A header written past the logical count is a violation: the
	// matching kernels scan [0, Len) and would silently miss it.
	m.Store(q.Addr(5), packedEnv(9, 9))
	if err := q.Invariants(); err == nil {
		t.Error("stray header past count not detected")
	}
}

func TestVerifyCompactedDetectsViolations(t *testing.T) {
	m := simt.NewMemory(32)
	q := New(m, 0, 16)
	for i := 0; i < 6; i++ {
		q.Push(packedEnv(i, 0))
	}
	q.Clear(1)
	// Not compacted yet: a surviving bubble must be reported.
	if err := q.VerifyCompacted(5); err == nil {
		t.Error("surviving bubble not detected")
	}
	q.CompactHost()
	if err := q.VerifyCompacted(5); err != nil {
		t.Errorf("clean compaction rejected: %v", err)
	}
	// Wrong expected count: conservation violation.
	if err := q.VerifyCompacted(4); err == nil {
		t.Error("length-conservation violation not detected")
	}
}

func TestCompactSIMTConservesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(200) + 1
		m := simt.NewMemory(n + 8)
		q := New(m, 0, n)
		for i := 0; i < n; i++ {
			q.Push(packedEnv(i, rng.Intn(50)))
		}
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				q.Clear(i)
			}
		}
		live := q.Live()
		cta := simt.NewCTA(0, 256, 16)
		q.Compact(cta)
		if err := q.VerifyCompacted(live); err != nil {
			t.Fatalf("trial %d (n=%d live=%d): %v", trial, n, live, err)
		}
	}
}

// TestCompactZeroAlloc pins Compact's allocation contract on a reused
// CTA: whatever the queue length (empty, a partial tile, several
// tiles) and the CTA width, compacting allocates nothing.
func TestCompactZeroAlloc(t *testing.T) {
	mem := simt.NewMemory(4096)
	var q Queue
	for _, threads := range []int{32, 1024} {
		cta := simt.NewCTA(0, threads, simt.MaxWarpsPerCTA)
		for _, n := range []int{0, 17, 1024, 4096} {
			allocs := testing.AllocsPerRun(20, func() {
				q.Init(mem, 0, n)
				for i := 0; i < n; i++ {
					q.Push(uint64(i%3) * packedEnv(i, 1)) // every third is a bubble
				}
				cta.Reset()
				q.Compact(cta)
			})
			if allocs != 0 {
				t.Errorf("Compact of %d entries on a %d-thread CTA allocates %v per call, want 0", n, threads, allocs)
			}
		}
	}
}

// TestCompactCountersMatchKernel checks the closed-form bill against
// the counters Compact's CTA accumulates, over queue lengths that cross
// warp and tile boundaries, CTA widths from one warp to 32, and
// residues with no bubbles, only bubbles, sparse bubbles and dense
// bubbles.
func TestCompactCountersMatchKernel(t *testing.T) {
	const maxN = 3000
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for n := 71; n <= maxN; n += 13 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1023, 1024, 1025, 2047, 2048, 2049, maxN)
	residues := []struct {
		name   string
		bubble func(rng *rand.Rand) bool
	}{
		{"none", func(*rand.Rand) bool { return false }},
		{"all", func(*rand.Rand) bool { return true }},
		{"sparse", func(rng *rand.Rand) bool { return rng.Intn(10) == 0 }},
		{"dense", func(rng *rand.Rand) bool { return rng.Intn(10) != 0 }},
	}
	rng := rand.New(rand.NewSource(25))
	mem := simt.NewMemory(maxN)
	var q Queue
	keep := make([]uint32, (maxN+simt.LaneCount-1)/simt.LaneCount)
	for _, warps := range []int{1, 4, 17, 32} {
		cta := simt.NewCTA(0, warps*simt.LaneCount, simt.MaxWarpsPerCTA)
		for _, r := range residues {
			for _, n := range lengths {
				q.Init(mem, 0, n)
				clear(keep)
				for i := 0; i < n; i++ {
					q.Push(packedEnv(i, 1))
					if r.bubble(rng) {
						q.Clear(i)
					} else {
						keep[i/simt.LaneCount] |= simt.LaneMask(i % simt.LaneCount)
					}
				}
				want := CompactCounters(n, warps, keep[:(n+simt.LaneCount-1)/simt.LaneCount])
				cta.Reset()
				q.Compact(cta)
				if got := cta.Counters(); got != want {
					t.Fatalf("%d warps, %s bubbles, n=%d: closed form %+v, kernel %+v", warps, r.name, n, want, got)
				}
			}
		}
	}
}

// TestCompactCountersZeroAlloc pins the closed form's allocation
// contract: billing a compaction allocates nothing.
func TestCompactCountersZeroAlloc(t *testing.T) {
	keep := make([]uint32, 128)
	for i := range keep {
		keep[i] = 0x5555_5555
	}
	var sink simt.Counters
	allocs := testing.AllocsPerRun(20, func() {
		sink = CompactCounters(len(keep)*simt.LaneCount, simt.MaxWarpsPerCTA, keep)
	})
	if allocs != 0 {
		t.Errorf("CompactCounters allocates %v per call, want 0", allocs)
	}
	if sink.GMemLoad != uint64(len(keep)) {
		t.Errorf("CompactCounters billed %d loads for %d warps of entries", sink.GMemLoad, len(keep))
	}
}
