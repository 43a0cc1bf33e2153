package simt

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForCoversAllIterations(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ParallelFor(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: iteration %d ran %d times, want 1", workers, i, got)
			}
		}
	}
	ParallelFor(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	ParallelFor(100, 4, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestWorkersResolution(t *testing.T) {
	if Workers(1) != 1 || Workers(5) != 5 {
		t.Fatal("explicit worker counts must pass through")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("defaulted worker count must be at least 1")
	}
}

// countingKernel is a grid whose CTAs are independent: each CTA writes
// a deterministic mix of per-lane values into its own disjoint global
// region, exercising every counter class a kernel bills.
func countingKernel(seed int64) (func(c *CTA, g *Memory), int) {
	const perCTA = 64
	return func(c *CTA, g *Memory) {
		rng := rand.New(rand.NewSource(seed + int64(c.ID)))
		base := c.ID * perCTA
		for _, w := range c.Warps() {
			mix := rng.Uint64()
			var vals, addr [LaneCount]uint64
			var gather [LaneCount]int
			for lane := range vals {
				vals[lane] = mix ^ uint64(lane)
				gather[lane] = base + (lane*7)%perCTA
			}
			w.Issue(2)
			vote := w.BallotMask(uint32(mix))
			w.StoreSharedRange(c.Shared, 0, &vals)
			w.LoadSharedStrided(c.Shared, 0, 2, &addr)
			w.WithMask(vote, func() { w.StoreGlobalPacked(g, base+w.ID*LaneCount, &vals) })
			w.LoadGlobalGather(g, &gather, &addr)
			var one [LaneCount]int
			for lane := range one {
				one[lane] = base
			}
			w.AtomicCAS(g, &one, &addr, &vals)
		}
		c.SyncThreads()
	}, perCTA
}

// runGrid runs kernel on ctas fresh CTAs of 64 threads and 64 shared
// words, spread over workers goroutines, and returns each CTA's
// counters indexed by CTA id.
func runGrid(ctas, workers int, kernel func(c *CTA, g *Memory), g *Memory) []Counters {
	per := make([]Counters, ctas)
	ParallelFor(ctas, workers, func(i int) {
		c := NewCTA(i, 64, 64)
		kernel(c, g)
		per[i] = c.Counters()
	})
	return per
}

// TestParallelCTAsDeterministic runs the same independent-CTA kernel
// on one goroutine and across several, and asserts bit-identical
// global memory and per-CTA counters. Under -race it also shows that
// CTAs writing disjoint words of one generation-stamped memory do not
// race.
func TestParallelCTAsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		kernel, perCTA := countingKernel(seed)
		const ctas = 12
		seq := NewMemory(ctas * perCTA)
		seqCtrs := runGrid(ctas, 1, kernel, seq)

		for _, workers := range []int{2, 4, 16} {
			par := NewMemory(ctas * perCTA)
			parCtrs := runGrid(ctas, workers, kernel, par)
			for i := range seqCtrs {
				if parCtrs[i] != seqCtrs[i] {
					t.Fatalf("seed %d workers %d: CTA %d counters differ:\npar %+v\nseq %+v",
						seed, workers, i, parCtrs[i], seqCtrs[i])
				}
			}
			for addr := 0; addr < ctas*perCTA; addr++ {
				if par.Load(addr) != seq.Load(addr) {
					t.Fatalf("seed %d workers %d: global[%d] = %d, want %d",
						seed, workers, addr, par.Load(addr), seq.Load(addr))
				}
			}
		}
	}
}

// Reference implementations of the coalescing and bank-conflict models,
// kept as the specification the alloc-free versions must match.
func refTransactions(addrs []int) uint64 {
	if len(addrs) == 0 {
		return 0
	}
	seen := make(map[int]struct{}, len(addrs))
	for _, a := range addrs {
		seen[a/SegmentWords] = struct{}{}
	}
	return uint64(len(seen))
}

func refBankConflicts(addrs []int) uint64 {
	var perBank [bankCount]map[int]struct{}
	worst := 1
	for _, a := range addrs {
		b := a % bankCount
		if perBank[b] == nil {
			perBank[b] = make(map[int]struct{}, 2)
		}
		perBank[b][a] = struct{}{}
		if n := len(perBank[b]); n > worst {
			worst = n
		}
	}
	return uint64(worst - 1)
}

// segments is GatherSegments over addrs, one lane each from lane 0.
func segments(addrs []int) uint64 {
	var addr [LaneCount]int
	copy(addr[:], addrs)
	return GatherSegments(FirstLanes(len(addrs)), &addr)
}

// TestMemoryModelCountersMatchReferenceAndDoNotAllocate checks
// GatherSegments and bankConflicts against their map references. The
// cases cover both ways GatherSegments counts: segment spans below 256
// (the set's popcount) and of 256 or more (the comparison of colliding
// lanes), including spans of exactly 63-65 and 255-257 and addresses
// 256 segments apart, over random lane masks.
func TestMemoryModelCountersMatchReferenceAndDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w = SegmentWords
	cases := [][]int{
		{}, {0}, {0, 0, 0}, {0, 16, 32, 48}, {5, 5, 37, 69, 5},
		{0, 63*w + w - 1}, {0, 64 * w}, {w - 1, 64 * w}, {0, 65 * w, 64 * w, 1},
		{63 * w, 0, 63*w + 3, 5}, {100 * w, 36 * w, 37 * w, 100*w + 1, 36 * w},
		{0, 255 * w}, {0, 256 * w}, {0, 256 * w, 256 * w, 0}, {3, 256*w + 3, 512 * w, 1, 257 * w},
		{256 * w, 0, 1, 256*w + 1, 512*w + 15, 5 * w, 261 * w},
	}
	for i := 0; i < 600; i++ {
		n := rng.Intn(LaneCount + 1)
		addrs := make([]int, n)
		span := []int{300, 64 * w, 255 * w, 256 * w, 257 * w, 4096 * w}[i%6]
		for j := range addrs {
			addrs[j] = rng.Intn(span)
			if i%7 == 0 { // segments 256 apart share a bit of the set
				addrs[j] = rng.Intn(4)*256*w + rng.Intn(3*w)
			}
		}
		cases = append(cases, addrs)
	}
	for _, addrs := range cases {
		if got, want := segments(addrs), refTransactions(addrs); got != want {
			t.Fatalf("segments(%v) = %d, want %d", addrs, got, want)
		}
		if got, want := bankConflicts(addrs), refBankConflicts(addrs); got != want {
			t.Fatalf("bankConflicts(%v) = %d, want %d", addrs, got, want)
		}
		var addr [LaneCount]int
		copy(addr[:], addrs)
		mask := rng.Uint32() & FirstLanes(len(addrs))
		var masked []int
		for lane := range addrs {
			if mask&LaneMask(lane) != 0 {
				masked = append(masked, addrs[lane])
			}
		}
		if got, want := GatherSegments(mask, &addr), refTransactions(masked); got != want {
			t.Fatalf("GatherSegments(%#x, %v) = %d, want %d", mask, addrs, got, want)
		}
	}
	wide := cases[len(cases)-1]
	narrow := cases[len(cases)-6]
	if allocs := testing.AllocsPerRun(100, func() {
		segments(narrow)
		segments(wide)
		bankConflicts(wide)
	}); allocs != 0 {
		t.Fatalf("memory-model counters allocate %.1f times per access, want 0", allocs)
	}
}

func TestCTAResetMatchesFresh(t *testing.T) {
	used := NewCTA(0, 100, 64)
	kernel, _ := countingKernel(3)
	// Dirty the CTA thoroughly, then reset.
	g := NewMemory(64 * 12)
	kernel(used, g)
	used.Warp(0).SetActive(0x5)
	used.Reset()

	fresh := NewCTA(0, 100, 64)
	if used.Counters() != fresh.Counters() {
		t.Fatalf("reset counters %+v != fresh %+v", used.Counters(), fresh.Counters())
	}
	if used.Threads() != fresh.Threads() {
		t.Fatalf("reset threads %d != fresh %d", used.Threads(), fresh.Threads())
	}
	for i := 0; i < used.NumWarps(); i++ {
		if used.Warp(i).Active() != fresh.Warp(i).Active() {
			t.Fatalf("warp %d mask %#x != fresh %#x", i, used.Warp(i).Active(), fresh.Warp(i).Active())
		}
	}
	for a := 0; a < 64; a++ {
		if used.Shared.Load(a) != 0 {
			t.Fatalf("shared[%d] = %d after Reset, want 0", a, used.Shared.Load(a))
		}
	}
}

func TestCTACacheReusesByShape(t *testing.T) {
	var cc CTACache
	a := cc.Get(0, 1024, 128)
	b := cc.Get(3, 1024, 128)
	if a != b {
		t.Fatal("same shape must reuse the CTA")
	}
	if b.ID != 3 {
		t.Fatalf("reused CTA ID = %d, want 3", b.ID)
	}
	if c := cc.Get(0, 64, 128); c == a {
		t.Fatal("different thread count must not reuse")
	}
	if c := cc.Get(0, 1024, 16); c == a {
		t.Fatal("different shared size must not reuse")
	}
	if allocs := testing.AllocsPerRun(50, func() { cc.Get(1, 1024, 128) }); allocs != 0 {
		t.Fatalf("cache hit allocates %.1f, want 0", allocs)
	}
}

// TestParallelForNestedCompletes runs ParallelFor inside ParallelFor
// iterations, three levels deep: every level must finish and cover its
// iterations exactly once.
func TestParallelForNestedCompletes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const outer, inner = 16, 32
	var hits [outer][inner]atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		ParallelFor(outer, 0, func(i int) {
			ParallelFor(inner, 0, func(j int) {
				ParallelFor(3, 0, func(int) {})
				hits[i][j].Add(1)
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ParallelFor did not complete")
	}
	for i := range hits {
		for j := range hits[i] {
			if got := hits[i][j].Load(); got != 1 {
				t.Fatalf("iteration (%d,%d) ran %d times, want 1", i, j, got)
			}
		}
	}
}

// TestParallelForSurvivesGoexit covers t.Fatal inside an iteration:
// an iteration that calls runtime.Goexit ends its own goroutine
// without hanging the call, whichever goroutine ran it, and later
// calls still cover every iteration.
func TestParallelForSurvivesGoexit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for trial := 0; trial < 10; trial++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ParallelFor(2, 2, func(i int) {
				if i == 0 {
					time.Sleep(10 * time.Millisecond)
					return
				}
				runtime.Goexit()
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("trial %d: ParallelFor with a Goexit iteration did not finish", trial)
		}
	}
	var hits [256]atomic.Int32
	ParallelFor(len(hits), 0, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("after Goexit trials: iteration %d ran %d times, want 1", i, got)
		}
	}
}
