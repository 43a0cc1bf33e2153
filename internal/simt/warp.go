package simt

import (
	"fmt"
	"math/bits"
)

// LaneCount is the number of lanes in a warp (CUDA warpSize).
const LaneCount = 32

// FullMask is the active mask with all 32 lanes enabled.
const FullMask uint32 = 0xFFFFFFFF

// Ffs returns the 1-based position of the least significant set bit of
// x, or 0 if x is zero — the semantics of CUDA's __ffs used throughout
// the paper's reduce phase.
func Ffs(x uint32) int {
	if x == 0 {
		return 0
	}
	return bits.TrailingZeros32(x) + 1
}

// Popc returns the number of set bits in x (CUDA __popc).
func Popc(x uint32) int { return bits.OnesCount32(x) }

// Clz returns the number of leading zeros in x (CUDA __clz).
func Clz(x uint32) int { return bits.LeadingZeros32(x) }

// LaneMask returns a mask with only the given lane's bit set.
func LaneMask(lane int) uint32 { return 1 << uint(lane) }

// FirstLanes returns the mask of lanes [0, n), clamped to the warp: the
// vote of the bounds predicate "lane < n" that kernels take before a
// masked access, computed without evaluating it per lane.
func FirstLanes(n int) uint32 { return FullMask >> uint(LaneCount-max(0, min(n, LaneCount))) }

// Warp is a group of 32 lanes executing in lock step under an active
// mask. Kernels keep per-lane values in lane arrays ([LaneCount]T,
// indexed by lane), compute register work inline in Go, and call the
// warp's primitives for what the hardware bills: each primitive bills
// its instruction once for the whole warp, whichever lanes are active
// (SIMT issue semantics), and a memory primitive touches only the words
// of the active lanes.
type Warp struct {
	// ID is the warp index within its CTA.
	ID     int
	active uint32
	ctrs   *Counters
}

// NewWarp returns a warp with all lanes active, billing into ctrs.
func NewWarp(id int, ctrs *Counters) *Warp {
	return &Warp{ID: id, active: FullMask, ctrs: ctrs}
}

// Active returns the current active mask.
func (w *Warp) Active() uint32 { return w.active }

// SetActive replaces the active mask. A zero mask is permitted (the
// warp is fully predicated off); subsequent primitives still bill
// issue slots, as on hardware where the instruction is fetched and
// issued but all lanes are masked.
func (w *Warp) SetActive(mask uint32) { w.active = mask }

// Counters returns the warp's counter sink.
func (w *Warp) Counters() *Counters { return w.ctrs }

// GlobalLane returns the device-wide linear thread id of the given
// lane assuming this warp's CTA-relative numbering.
func (w *Warp) GlobalLane(lane int) int { return w.ID*LaneCount + lane }

// Issue bills n ALU instructions: the register work a kernel computes
// inline over its lane arrays. n should approximate the number of
// machine instructions the lane body compiles to.
func (w *Warp) Issue(n int) {
	if n < 0 {
		panic(fmt.Sprintf("simt: negative instruction count %d", n))
	}
	w.ctrs.ALU += uint64(n)
}

// BallotMask bills one vote instruction and returns votes restricted to
// the active lanes (CUDA __ballot): bit i of votes is lane i's
// predicate, which the kernel computes itself.
func (w *Warp) BallotMask(votes uint32) uint32 {
	w.ctrs.Ballot++
	return votes & w.active
}

// WithMask runs body with the active mask narrowed to mask∩active,
// restoring the previous mask afterwards and billing a branch
// instruction — the idiom for a divergent if. If the narrowed mask is
// empty the body is skipped (the hardware would not issue the path).
func (w *Warp) WithMask(mask uint32, body func()) {
	w.ctrs.Branch++
	prev := w.active
	narrowed := prev & mask
	if narrowed == 0 {
		return
	}
	w.active = narrowed
	body()
	w.active = prev
}

// LoadGlobalRange issues one lane-contiguous global load: active lane l
// reads m[base+l] into dst[l], and the other entries of dst are left as
// they are. Lane l's word lies in segment (base%16+l)/16 of the run, so
// the warp touches at most three 128-byte segments, and the load bills
// one transaction for each that holds an active lane.
func (w *Warp) LoadGlobalRange(m *Memory, base int, dst *[LaneCount]uint64) {
	w.ctrs.GMemLoad++
	w.ctrs.GMemTrans += rangeSegments(base, w.active)
	for a := w.active; a != 0; a &= a - 1 {
		l := bits.TrailingZeros32(a)
		dst[l] = m.Load(base + l)
	}
}

// LoadGlobalGather issues one global load with a per-lane address:
// active lane l reads m[addr[l]] into dst[l]. It bills one transaction
// per distinct segment the active lanes touch.
func (w *Warp) LoadGlobalGather(m *Memory, addr *[LaneCount]int, dst *[LaneCount]uint64) {
	w.ctrs.GMemLoad++
	w.ctrs.GMemTrans += GatherSegments(w.active, addr)
	for a := w.active; a != 0; a &= a - 1 {
		l := bits.TrailingZeros32(a)
		dst[l] = m.Load(addr[l])
	}
}

// StoreGlobalPacked issues one global store that packs the active
// lanes: the k-th active lane in lane order writes its src entry to
// m[base+k] — the scatter of a ballot-prefix compaction, where a lane's
// offset is the popcount of the active lanes below it. The words form
// one contiguous run, so the store bills that run's segments.
func (w *Warp) StoreGlobalPacked(m *Memory, base int, src *[LaneCount]uint64) {
	w.ctrs.GMemStore++
	w.ctrs.GMemTrans += RunSegments(base, Popc(w.active))
	addr := base
	for a := w.active; a != 0; a &= a - 1 {
		m.Store(addr, src[bits.TrailingZeros32(a)])
		addr++
	}
}

// AtomicCAS issues one warp-wide compare-and-swap: each active lane l,
// in ascending lane order, stores new[l] at m[addr[l]] if the word
// holds old[l], so intra-warp contention on one address resolves to
// the lowest contending lane, as hardware serialization does. It bills
// one transaction per distinct segment and returns the mask of lanes
// whose swap succeeded.
func (w *Warp) AtomicCAS(m *Memory, addr *[LaneCount]int, old, new *[LaneCount]uint64) (swapped uint32) {
	w.ctrs.Atomic++
	w.ctrs.GMemTrans += GatherSegments(w.active, addr)
	for a := w.active; a != 0; a &= a - 1 {
		l := bits.TrailingZeros32(a)
		if _, ok := m.CAS(addr[l], old[l], new[l]); ok {
			swapped |= LaneMask(l)
		}
	}
	return swapped
}

// bankCount is the number of shared-memory banks (NVIDIA: 32 banks,
// one word wide each).
const bankCount = 32

// bankConflicts returns the serialization degree minus one of a warp
// shared-memory access: the worst bank's count of DISTINCT addresses
// (same-address lanes broadcast and do not conflict). At most one
// address per lane arrives, so seen[b] records, as a bitmask over
// positions in addrs, the distinct addresses already counted in bank b;
// a new address is compared only against those. A conflict-free access
// touches each bank once and costs one pass, and the tallies live in
// stack arrays — no allocation on a path that runs once per simulated
// shared-memory instruction.
func bankConflicts(addrs []int) uint64 {
	var seen [bankCount]uint32
	worst := 1
next:
	for i, a := range addrs {
		bank := a % bankCount
		for m := seen[bank]; m != 0; m &= m - 1 {
			if addrs[bits.TrailingZeros32(m)] == a {
				continue next
			}
		}
		seen[bank] |= 1 << uint(i)
		if n := bits.OnesCount32(seen[bank]); n > worst {
			worst = n
		}
	}
	return uint64(worst - 1)
}

// LoadSharedStrided issues one shared-memory load: active lane l reads
// m[base+l*stride] into dst[l], a column of a row-major matrix. An odd
// stride is invertible modulo the 32 banks, so the lanes hit 32
// different banks and the load bills no conflict cycle; an even stride
// bills the extra passes its bank conflicts cost.
func (w *Warp) LoadSharedStrided(m *Memory, base, stride int, dst *[LaneCount]uint64) {
	w.ctrs.SMemLoad++
	var addrs [LaneCount]int
	n := 0
	for a := w.active; a != 0; a &= a - 1 {
		l := bits.TrailingZeros32(a)
		addrs[n] = base + l*stride
		dst[l] = m.Load(addrs[n])
		n++
	}
	if stride%2 == 0 {
		w.ctrs.SMemConflict += bankConflicts(addrs[:n])
	}
}

// StoreSharedRange issues one lane-contiguous shared-memory store:
// active lane l writes src[l] to m[base+l]. Thirty-two consecutive
// words sit in 32 different banks, so the store bills no conflict
// cycle.
func (w *Warp) StoreSharedRange(m *Memory, base int, src *[LaneCount]uint64) {
	w.ctrs.SMemStore++
	for a := w.active; a != 0; a &= a - 1 {
		l := bits.TrailingZeros32(a)
		m.Store(base+l, src[l])
	}
}

// LoadSharedUniform is the broadcast shared-memory load: every active
// lane reads the one address addr, so the warp issues one load, the
// lanes share the word without a bank conflict, and the value is
// returned once. With no lane active it bills the issue slot, reads
// nothing and returns 0.
func (w *Warp) LoadSharedUniform(m *Memory, addr int) uint64 {
	w.ctrs.SMemLoad++
	if w.active == 0 {
		return 0
	}
	return m.Load(addr)
}

// StoreSharedUniform is the broadcast shared-memory store: every active
// lane writes v to the one address addr, one issue slot and no bank
// conflict. With no lane active it bills the issue slot and writes
// nothing.
func (w *Warp) StoreSharedUniform(m *Memory, addr int, v uint64) {
	w.ctrs.SMemStore++
	if w.active != 0 {
		m.Store(addr, v)
	}
}
