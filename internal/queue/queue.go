// Package queue implements the GPU-resident message and receive-request
// queues of the paper's §V: contiguous arrays of packed 64-bit headers
// in simulated device global memory, with the UMQ at the head of the
// message queue and the PRQ at the head of the request queue. Matched
// entries are cleared in place (bubbles); Compact removes the bubbles
// with a warp-parallel stream compaction (ballot + popcount prefix sum
// followed by a scatter), the step whose ~10% cost the paper measures.
// CompactCounters is that kernel's bill in closed form, which the
// matching engines charge without running it.
package queue

import (
	"fmt"
	"math/bits"

	"simtmp/internal/simt"
)

// Queue is a dense, ordered array of packed headers in device memory.
// Index 0 is the oldest entry; matching order follows indices.
type Queue struct {
	mem   *simt.Memory
	base  int
	cap   int
	count int
}

// New creates a queue over mem[base, base+capacity). The region is
// zeroed (all slots invalid).
func New(mem *simt.Memory, base, capacity int) *Queue {
	q := &Queue{}
	q.Init(mem, base, capacity)
	return q
}

// Init (re)initializes q in place as an empty queue over
// mem[base, base+capacity), zeroing the region exactly as New does but
// without allocating, so a caller-owned Queue can be reused across
// kernel invocations.
func (q *Queue) Init(mem *simt.Memory, base, capacity int) {
	if capacity < 0 || base < 0 || base+capacity > mem.Len() {
		panic(fmt.Sprintf("queue: region [%d,%d) outside memory of %d words", base, base+capacity, mem.Len()))
	}
	mem.Fill(base, capacity, 0)
	*q = Queue{mem: mem, base: base, cap: capacity}
}

// Cap returns the queue capacity in entries.
func (q *Queue) Cap() int { return q.cap }

// Len returns the number of entries (including cleared bubbles not yet
// compacted).
func (q *Queue) Len() int { return q.count }

// Addr returns the global-memory word address of entry i, for kernel
// access.
func (q *Queue) Addr(i int) int { return q.base + i }

// Mem returns the backing memory (for kernels operating on the queue).
func (q *Queue) Mem() *simt.Memory { return q.mem }

// Push appends a packed header at the tail. It reports an error when
// the queue is full — the flow-control condition a real receiver must
// handle.
func (q *Queue) Push(word uint64) error {
	if q.count == q.cap {
		return fmt.Errorf("queue: full (%d entries)", q.cap)
	}
	q.mem.Store(q.base+q.count, word)
	q.count++
	return nil
}

// At returns the packed word of entry i (host-side readout).
func (q *Queue) At(i int) uint64 {
	if i < 0 || i >= q.count {
		panic(fmt.Sprintf("queue: index %d out of range [0,%d)", i, q.count))
	}
	return q.mem.Load(q.base + i)
}

// Clear invalidates entry i in place, leaving a bubble.
func (q *Queue) Clear(i int) {
	if i < 0 || i >= q.count {
		panic(fmt.Sprintf("queue: index %d out of range [0,%d)", i, q.count))
	}
	q.mem.Store(q.base+i, 0)
}

// Reset empties the queue.
func (q *Queue) Reset() {
	q.mem.Fill(q.base, q.count, 0)
	q.count = 0
}

// Valid reports whether entry i holds a live header.
func (q *Queue) Valid(i int) bool { return q.At(i) != 0 }

// Live returns the number of non-bubble entries (host-side scan).
func (q *Queue) Live() int {
	n := 0
	for i := 0; i < q.count; i++ {
		if q.Valid(i) {
			n++
		}
	}
	return n
}

// Invariants checks the queue's structural consistency: the entry
// count within [0, capacity] and every slot past the count zeroed
// (no header may live outside the logical queue). The package's tests
// assert it around queue reuse and mutation; it is cheap enough for
// production assertions too.
func (q *Queue) Invariants() error {
	if q.count < 0 || q.count > q.cap {
		return fmt.Errorf("queue: count %d outside [0,%d]", q.count, q.cap)
	}
	for i := q.count; i < q.cap; i++ {
		if q.mem.Load(q.base+i) != 0 {
			return fmt.Errorf("queue: slot %d past count %d holds %#x", i, q.count, q.mem.Load(q.base+i))
		}
	}
	return nil
}

// VerifyCompacted checks the length-conservation contract of a
// completed compaction: exactly liveBefore entries remain, all of them
// valid headers (no bubbles survive), and the structural invariants
// hold. liveBefore is the Live() count captured before compacting.
func (q *Queue) VerifyCompacted(liveBefore int) error {
	if err := q.Invariants(); err != nil {
		return err
	}
	if q.count != liveBefore {
		return fmt.Errorf("queue: compaction kept %d entries, %d were live", q.count, liveBefore)
	}
	for i := 0; i < q.count; i++ {
		if !q.Valid(i) {
			return fmt.Errorf("queue: bubble at %d survived compaction", i)
		}
	}
	return nil
}

// CompactHost removes bubbles preserving order, host-side (the
// reference the SIMT kernel is tested against). It returns the new
// length.
func (q *Queue) CompactHost() int {
	w := 0
	for i := 0; i < q.count; i++ {
		v := q.mem.Load(q.base + i)
		if v != 0 {
			q.mem.Store(q.base+w, v)
			w++
		}
	}
	q.mem.Fill(q.base+w, q.count-w, 0)
	q.count = w
	return w
}

// Compact removes bubbles with a warp-parallel stream compaction
// executed on the given CTA, billing SIMT instructions: each tile of
// CTA-threads entries is loaded, per-warp ballots yield keep masks,
// popcount prefix sums produce scatter offsets (warp-local via ballot,
// cross-warp via a shared-memory scan by warp 0), and survivors are
// scattered forward. Order is preserved. It returns the new length.
//
// A warp wholly past the queue's end loads, keeps and scatters nothing,
// yet still issues the tile's two ballots and two branches; Compact
// bills those four instructions in one step instead of simulating the
// warp, so a short queue on a wide CTA costs host time in proportion
// to its entries.
//
// The CTA's shared memory must hold at least NumWarps words. Compact
// allocates nothing: the per-tile state lives in stack arrays sized for
// the largest CTA.
func (q *Queue) Compact(cta *simt.CTA) int {
	warps := cta.Warps()
	tile := len(warps) * simt.LaneCount
	writeBase := 0
	// Per-lane loaded words, indexed [warp][lane]. A lane's word is
	// read only when the lane loaded it this tile.
	var words [simt.MaxWarpsPerCTA][simt.LaneCount]uint64
	for tileStart := 0; tileStart < q.count; tileStart += tile {
		var masks [simt.MaxWarpsPerCTA]uint32 // keep masks
		busy := warps[:min(len(warps), (q.count-tileStart+simt.LaneCount-1)/simt.LaneCount)]
		for _, w := range warps[len(busy):] {
			c := w.Counters()
			c.Ballot += 2
			c.Branch += 2
		}

		for wi, w := range busy {
			start := tileStart + wi*simt.LaneCount
			valid := w.BallotMask(simt.FirstLanes(q.count - start))
			w.WithMask(valid, func() { w.LoadGlobalRange(q.mem, q.base+start, &words[wi]) })
			var keep uint32
			for m := valid; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				if words[wi][lane] != 0 {
					keep |= simt.LaneMask(lane)
				}
			}
			masks[wi] = w.BallotMask(keep)
		}
		cta.SyncThreads()

		// Warp 0 computes exclusive prefix sums of per-warp keep counts
		// in shared memory (a ≤32-element scan: one warp suffices).
		w0 := warps[0]
		nw := len(warps)
		var warpOffsets [simt.MaxWarpsPerCTA]uint64
		w0.WithMask(simt.FirstLanes(nw), func() {
			w0.Issue(2)
			sum := 0
			for i := 0; i < nw; i++ {
				warpOffsets[i] = uint64(sum)
				sum += simt.Popc(masks[i])
			}
			w0.StoreSharedRange(cta.Shared, 0, &warpOffsets)
		})
		cta.SyncThreads()

		// Scatter survivors: lane offset = warp offset + popc of lower
		// keep bits (the ballot-prefix idiom).
		for wi, w := range busy {
			mask := masks[wi]
			w.WithMask(mask, func() {
				w.Issue(2) // offset computation (popc + add)
				w.StoreGlobalPacked(q.mem, q.base+writeBase+int(warpOffsets[wi]), &words[wi])
			})
		}
		cta.SyncThreads()

		kept := 0
		for _, m := range masks[:nw] {
			kept += simt.Popc(m)
		}
		writeBase += kept
	}
	q.mem.Fill(q.base+writeBase, q.count-writeBase, 0)
	q.count = writeBase
	return writeBase
}

// CompactCounters returns, in closed form, the counters Compact bills
// on a CTA of warps whole warps for a queue of n entries at a
// segment-aligned base whose live entries are given by keep: bit l of
// keep[i] is set when entry 32i+l holds a header (⌈n/32⌉ masks; bits
// past n are ignored). It touches no memory and builds no queue or CTA,
// so an engine that needs only the compaction's cost pays host time per
// warp of entries rather than per lane. Compact stays the executable
// kernel and the reference this is tested against.
//
// Per tile every warp, idle or busy, bills two ballots and two branches
// (an idle warp in one step; a busy warp for its bounds and keep votes,
// its load branch and its scatter branch), and every warp waits at the
// tile's three barriers; warp 0 adds the offset scan's branch, two ALU
// instructions and one shared store. A busy warp loads its lanes (one
// instruction, one segment per 16 valid lanes), and one with survivors
// computes its offsets (two ALU) and scatters them as one packed run
// from the running write position.
func CompactCounters(n, warps int, keep []uint32) simt.Counters {
	var c simt.Counters
	w := uint64(warps)
	writeBase := 0
	for first := 0; first*simt.LaneCount < n; first += warps {
		c.Ballot += 2 * w
		c.Branch += 2*w + 1
		c.Sync += 3 * w
		c.ALU += 2
		c.SMemStore++
		for g := first; g < first+warps && g*simt.LaneCount < n; g++ {
			start := g * simt.LaneCount
			valid := min(n-start, simt.LaneCount)
			c.GMemLoad++
			c.GMemTrans += simt.RunSegments(start, valid)
			if k := simt.Popc(keep[g] & simt.FirstLanes(valid)); k > 0 {
				c.ALU += 2
				c.GMemStore++
				c.GMemTrans += simt.RunSegments(writeBase, k)
				writeBase += k
			}
		}
	}
	return c
}
