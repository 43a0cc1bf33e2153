package simt

import (
	"fmt"

	"simtmp/internal/arch"
)

// CTA is a cooperative thread array: up to 32 warps sharing a
// scratch-pad memory and a barrier. Warps within a CTA are executed
// sequentially and deterministically by kernel code; SyncThreads marks
// barrier points for the timing model.
//
// The warps and the barriers bill into one counter sink owned by the
// CTA, so Counters, DrainCounters and Reset cost the same at any warp
// count.
type CTA struct {
	// ID is the CTA index within its grid.
	ID int
	// Shared is the CTA's scratch-pad memory.
	Shared *Memory

	threads int
	warps   []*Warp
	ctrs    Counters // the sink every warp and barrier bills into
}

// MaxWarpsPerCTA is the hardware limit the paper leans on: "so far all
// NVIDIA GPUs only support 32 warps per CTA", which caps the vote
// matrix height at 32.
const MaxWarpsPerCTA = 32

// NewCTA creates a CTA with the given number of threads (rounded up to
// whole warps, max 1024) and a shared memory of sharedWords 64-bit
// words.
func NewCTA(id, threads, sharedWords int) *CTA {
	if threads <= 0 || threads > MaxWarpsPerCTA*LaneCount {
		panic(fmt.Sprintf("simt: CTA thread count %d out of range (1..%d)", threads, MaxWarpsPerCTA*LaneCount))
	}
	nWarps := (threads + LaneCount - 1) / LaneCount
	c := &CTA{ID: id, Shared: NewMemory(sharedWords), threads: threads}
	c.warps = make([]*Warp, nWarps)
	for i := range c.warps {
		c.warps[i] = NewWarp(i, &c.ctrs)
	}
	c.resetMasks()
	return c
}

// resetMasks restores every warp's initial active mask (all lanes, with
// the last warp partially masked when threads is not a multiple of 32).
func (c *CTA) resetMasks() {
	for i, w := range c.warps {
		w.SetActive(FirstLanes(c.threads - i*LaneCount))
	}
}

// Reset returns the CTA to its freshly constructed state without
// reallocating: counters zeroed, active masks restored, shared memory
// reading as zero again. It is the reuse hook the matchers'
// zero-allocation hot paths rely on; a Reset CTA behaves
// bit-identically to a new one. Its cost does not grow with the shared
// arena: Memory.Zero starts a new generation instead of clearing words.
func (c *CTA) Reset() {
	c.ResetCounters()
	c.resetMasks()
	c.Shared.Zero()
}

// Warps returns the CTA's warps in id order.
func (c *CTA) Warps() []*Warp { return c.warps }

// Warp returns warp i.
func (c *CTA) Warp(i int) *Warp { return c.warps[i] }

// NumWarps returns the number of warps in the CTA.
func (c *CTA) NumWarps() int { return len(c.warps) }

// Threads returns the number of threads in the CTA (counting initially
// active lanes).
func (c *CTA) Threads() int {
	n := 0
	for _, w := range c.warps {
		n += Popc(w.Active())
	}
	return n
}

// SyncThreads marks a CTA-wide barrier: every warp bills one sync
// instruction. Kernel code already executes warps in program order, so
// the barrier has no functional effect — only a timing one.
func (c *CTA) SyncThreads() {
	c.ctrs.Sync += uint64(len(c.warps))
}

// Counters returns the CTA's accumulated counters.
func (c *CTA) Counters() Counters { return c.ctrs }

// DrainCounters adds the CTA's counters to dst and zeroes them: the
// boundary between two phases of phase-separated accounting.
func (c *CTA) DrainCounters(dst *Counters) {
	dst.Add(&c.ctrs)
	c.ctrs = Counters{}
}

// ResetCounters zeroes the CTA's counters (useful for phase-separated
// accounting).
func (c *CTA) ResetCounters() { c.ctrs = Counters{} }

// ctaShape keys CTA reuse by construction parameters.
type ctaShape struct{ threads, sharedWords int }

// CTACache reuses CTA instances by shape, resetting them on every Get,
// so steady-state kernel loops allocate nothing. The cache is NOT safe
// for concurrent use (the engines hold one per matcher instance).
type CTACache struct {
	ctas map[ctaShape]*CTA
}

// Get returns a reset CTA of the given shape, creating it on first use.
func (cc *CTACache) Get(id, threads, sharedWords int) *CTA {
	key := ctaShape{threads, sharedWords}
	if c, ok := cc.ctas[key]; ok {
		c.ID = id
		c.Reset()
		return c
	}
	if cc.ctas == nil {
		cc.ctas = make(map[ctaShape]*CTA)
	}
	c := NewCTA(id, threads, sharedWords)
	cc.ctas[key] = c
	return c
}

// Device is a simulated GPU: an architecture plus global memory.
type Device struct {
	Arch   *arch.Arch
	Global *Memory
}

// NewDevice creates a device of the given architecture with a global
// memory of globalWords 64-bit words.
func NewDevice(a *arch.Arch, globalWords int) *Device {
	return &Device{Arch: a, Global: NewMemory(globalWords)}
}
