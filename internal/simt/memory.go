package simt

import (
	"fmt"
	"math"
	"math/bits"
)

// Memory is a word-addressed (64-bit) memory, used for both simulated
// global device memory and per-CTA shared memory. Addresses are word
// indices. Accesses out of range panic, mirroring a device-side fault.
//
// A memory from NewMemory resets in O(1): from its first Zero on,
// every word carries the generation it was last written in, Zero
// starts a new generation, and a word stamped with an older one reads
// as 0. Stamps are per word, so goroutines writing disjoint words do
// not race. A view from Wrap has no stamps: it is host-owned storage,
// read and written as is.
type Memory struct {
	words []uint64
	// stamps holds each word's generation; it is allocated by the
	// first Zero, so a memory never reset carries none.
	stamps []uint8
	gen    uint8
	view   bool // from Wrap: Zero clears the words themselves
}

// NewMemory allocates a zeroed memory of the given number of 64-bit
// words.
func NewMemory(words int) *Memory {
	if words < 0 {
		panic(fmt.Sprintf("simt: negative memory size %d", words))
	}
	return &Memory{words: make([]uint64, words)}
}

// Wrap returns a Memory view over an existing word slice without
// copying; stores through the view mutate the slice. Useful to expose
// host-prepared data as device global memory.
func Wrap(words []uint64) *Memory { return &Memory{words: words, view: true} }

// Rebind repoints a wrapped view at a new word slice without
// allocating, so long-lived views can track reusable host buffers.
// The result is a view (see Wrap) whatever m was before.
func (m *Memory) Rebind(words []uint64) { *m = Memory{words: words, view: true} }

// Len returns the memory size in words.
func (m *Memory) Len() int { return len(m.words) }

// Load returns the word at addr.
func (m *Memory) Load(addr int) uint64 {
	v := m.words[addr]
	if addr < len(m.stamps) && m.stamps[addr] != m.gen {
		return 0
	}
	return v
}

// Store writes v to addr.
func (m *Memory) Store(addr int, v uint64) {
	m.words[addr] = v
	if addr < len(m.stamps) {
		m.stamps[addr] = m.gen
	}
}

// CAS performs a compare-and-swap at addr: if the current value equals
// old, it stores new and reports true; otherwise it reports false. It
// returns the value observed before the operation either way.
func (m *Memory) CAS(addr int, old, new uint64) (prev uint64, swapped bool) {
	prev = m.Load(addr)
	if prev == old {
		m.Store(addr, new)
		return prev, true
	}
	return prev, false
}

// Fill sets words [addr, addr+n) to v.
func (m *Memory) Fill(addr, n int, v uint64) {
	words := m.words[addr : addr+n]
	for i := range words {
		words[i] = v
	}
	if m.stamps != nil {
		stamps := m.stamps[addr : addr+n]
		for i := range stamps {
			stamps[i] = m.gen
		}
	}
}

// Zero makes the whole memory read as zero. For a memory from
// NewMemory it starts a new generation instead of clearing the words,
// so its cost does not depend on the size; only when the 8-bit
// generation wraps, once every 256 calls, are the words and stamps
// really cleared. A view from Wrap is cleared word by word.
func (m *Memory) Zero() {
	switch {
	case m.view:
		clear(m.words)
		return
	case m.stamps == nil:
		m.stamps = make([]uint8, len(m.words)) // every word now stale
	}
	m.gen++
	if m.gen == 0 {
		clear(m.words)
		clear(m.stamps)
	}
}

// Slice exposes words [addr, addr+n) as a Go slice aliasing the
// underlying storage. It is intended for host-side setup and result
// readout, not for kernel code (kernel code must go through warp
// accessors so accesses are billed). Words left over from before the
// last Zero are cleared first, so the slice reads what Load would; the
// aliasing holds until the next Zero.
func (m *Memory) Slice(addr, n int) []uint64 {
	words := m.words[addr : addr+n]
	if m.stamps != nil {
		stamps := m.stamps[addr : addr+n]
		for i, g := range stamps {
			if g != m.gen {
				words[i], stamps[i] = 0, m.gen
			}
		}
	}
	return words
}

// SegmentWords is the size of one memory transaction in words: 128
// bytes, i.e. 16 64-bit words, matching NVIDIA's L1/L2 line granularity
// that the coalescer works at.
const SegmentWords = 16

// GatherSegments returns the global-memory transactions of an access
// in which mask's lanes each touch word addr[lane]: the distinct
// 128-byte segments of those words — the coalescing model, under which
// a fully sequential warp access costs 1-2 transactions and a random
// gather up to one per lane. It takes each lane's segment once, in one
// pass, and sets bit seg mod 256 of a 256-bit set; when the segments
// span fewer than 256, distinct segments are distinct bits, so the
// count is the set's popcount. A wider spread compares only the lanes
// whose bit was already set with the lanes before them. Kernels billed
// in one host pass over their lanes call it directly, as the gather and
// CAS primitives do.
func GatherSegments(mask uint32, addr *[LaneCount]int) uint64 {
	if mask == 0 {
		return 0
	}
	var set [4]uint64
	var hits uint32 // lanes whose bit an earlier lane had set
	lo, hi := math.MaxInt, math.MinInt
	for a := mask; a != 0; a &= a - 1 {
		lane := bits.TrailingZeros32(a)
		seg := addr[lane] / SegmentWords
		lo, hi = min(lo, seg), max(hi, seg)
		word, bit := seg>>6&3, uint64(1)<<(seg&63)
		if set[word]&bit != 0 {
			hits |= LaneMask(lane)
		}
		set[word] |= bit
	}
	n := uint64(bits.OnesCount64(set[0]) + bits.OnesCount64(set[1]) + bits.OnesCount64(set[2]) + bits.OnesCount64(set[3]))
	if hi-lo < 256 {
		return n
	}
	for ; hits != 0; hits &= hits - 1 {
		lane := bits.TrailingZeros32(hits)
		seg, dup := addr[lane]/SegmentWords, false
		for below := mask & (LaneMask(lane) - 1); below != 0 && !dup; below &= below - 1 {
			dup = addr[bits.TrailingZeros32(below)]/SegmentWords == seg
		}
		if !dup {
			n++
		}
	}
	return n
}

// rangeSegments is GatherSegments for the lane-contiguous access from
// base by mask's lanes, in closed form: with off = base%SegmentWords,
// lanes [0, 16-off) share the run's first segment, lanes
// [16-off, 32-off) its second, and the rest its third.
func rangeSegments(base int, mask uint32) uint64 {
	off := base % SegmentWords
	first, firstTwo := FirstLanes(SegmentWords-off), FirstLanes(2*SegmentWords-off)
	n := uint64(0)
	for _, seg := range [3]uint32{first, firstTwo &^ first, ^firstTwo} {
		if mask&seg != 0 {
			n++
		}
	}
	return n
}

// RunSegments returns the global-memory transactions of an access to
// the n consecutive words from base: the 128-byte segments the run
// touches. Kernels billed in closed form use it to price a coalesced
// access without simulating the warp.
func RunSegments(base, n int) uint64 {
	if n == 0 {
		return 0
	}
	return uint64((base+n-1)/SegmentWords - base/SegmentWords + 1)
}
