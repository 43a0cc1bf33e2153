package match

import (
	"fmt"
	"math/bits"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/hash"
	"simtmp/internal/simt"
	"simtmp/internal/telemetry"
	"simtmp/internal/timing"
)

// CollisionPolicy selects how the hash matcher resolves collisions.
type CollisionPolicy int

const (
	// TwoLevel is the paper's scheme: a primary table five times the
	// size of a secondary table; a collision in the primary falls back
	// to the secondary, a second collision defers the element to the
	// next iteration.
	TwoLevel CollisionPolicy = iota
	// LinearProbe is the ablation alternative: one table with bounded
	// linear probing.
	LinearProbe
)

// String names the policy.
func (c CollisionPolicy) String() string {
	switch c {
	case TwoLevel:
		return "two-level"
	case LinearProbe:
		return "linear-probe"
	default:
		return fmt.Sprintf("CollisionPolicy(%d)", int(c))
	}
}

// maxProbe bounds linear probing before an element defers.
const maxProbe = 8

// HashConfig configures the unordered (hash-table) matcher of §VI-C.
type HashConfig struct {
	// Arch selects the simulated GPU (default Pascal GTX1080).
	Arch *arch.Arch
	// CTAs is the number of CTAs launched (default 1). All CTAs run on
	// one SM; beyond the occupancy limit they serialize (Figure 6b).
	CTAs int
	// HashName selects the hash function ("jenkins" — the paper's
	// choice —, "fnv1a" or "xorshift"; default jenkins).
	HashName string
	// Policy selects the collision resolution (default TwoLevel).
	Policy CollisionPolicy
	// Recorder receives per-iteration telemetry (nil = disabled, the
	// default; emission is nil-safe and allocation-free).
	Recorder *telemetry.Recorder
	// Track is the recorder timeline events land on (the owning GPU).
	Track int
}

// HashMatcher implements the paper's strongest relaxation: no
// wildcards and no ordering, enabling a hash table with constant-time
// insert and probe. Each iteration inserts pending receive requests
// (thread per request, CAS per slot) and then probes pending messages
// (thread per message); unplaced elements defer to the next iteration.
type HashMatcher struct {
	cfg   HashConfig
	fn    hash.Func
	cost  int
	model timing.Model
	// workingSet is the table footprint of the current Match call, in
	// words, used for L2-residency pricing.
	workingSet int

	// Reusable scratch, grown monotonically so the steady-state Match
	// path allocates nothing (the adversarial-collision overflow list
	// is the one excluded cold path). NOT safe for concurrent Match
	// calls.
	scratch hashScratch
}

// hashScratch holds the per-call state of the hash kernels.
type hashScratch struct {
	mem     *simt.Memory // two-level (or linear) table storage
	reqMem  *simt.Memory // rebindable views over the key arrays
	msgMem  *simt.Memory
	primIdx []int
	secIdx  []int
	pendReq []int
	pendMsg []int
	reqKeys []uint64
	msgKeys []uint64
	still   []bool
	perCTA  []simt.Counters
	warp    *simt.Warp // every warp of a phase, one after another
	lanes   hashLanes
	byKey   map[uint64][]int
}

// hashLanes holds the per-lane registers of the warp an element phase
// is running.
type hashLanes struct {
	ids   [simt.LaneCount]int    // request or message index
	keys  [simt.LaneCount]uint64 // packed tuple key
	home  [simt.LaneCount]int    // primary-table slot of the key
	slots [simt.LaneCount]int    // table slot of the lane's current CAS
	zero  [simt.LaneCount]uint64 // the empty-slot word, for every lane
}

// NewHashMatcher returns a matcher with the given configuration. It
// returns an error for an unknown hash function name.
func NewHashMatcher(cfg HashConfig) (*HashMatcher, error) {
	if cfg.Arch == nil {
		cfg.Arch = arch.PascalGTX1080()
	}
	if cfg.CTAs <= 0 {
		cfg.CTAs = 1
	}
	if cfg.HashName == "" {
		cfg.HashName = "jenkins"
	}
	fn, err := hash.ByName(cfg.HashName)
	if err != nil {
		return nil, err
	}
	return &HashMatcher{
		cfg:   cfg,
		fn:    fn,
		cost:  hash.CostALU(cfg.HashName),
		model: timing.NewModel(cfg.Arch),
	}, nil
}

// MustHashMatcher is NewHashMatcher that panics on error, for
// configurations known statically valid.
func MustHashMatcher(cfg HashConfig) *HashMatcher {
	m, err := NewHashMatcher(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Matcher.
func (h *HashMatcher) Name() string {
	return fmt.Sprintf("gpu-hash(%s,%s,ctas=%d)", h.cfg.Arch.Generation, h.cfg.HashName, h.cfg.CTAs)
}

// Contract implements Contractor: no wildcards, no ordering — but the
// matching must still be maximum-cardinality (§VI-C).
func (h *HashMatcher) Contract() Contract {
	return Contract{Semantics: Unordered, SrcWildcard: false, TagWildcard: false}
}

// tableSizes returns (primary, secondary) slot counts for a batch of n
// elements: the secondary is the next power of two holding n/2, the
// primary five times that (the paper's ratio).
func tableSizes(n int) (int, int) {
	s := 64
	for s < n {
		s *= 2
	}
	return 5 * s, s
}

// Match implements Matcher under the no-wildcards/no-ordering
// relaxation. Wildcard requests are rejected with ErrWildcard.
func (h *HashMatcher) Match(msgs []envelope.Envelope, reqs []envelope.Request) (*Result, error) {
	res := &Result{}
	if err := h.MatchInto(res, msgs, reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// MatchInto implements ReusableMatcher (see MatrixMatcher.MatchInto).
func (h *HashMatcher) MatchInto(res *Result, msgs []envelope.Envelope, reqs []envelope.Request) error {
	// A wildcard-free request's key is its packed word (Request.Key).
	s := &h.scratch
	msgKeys, reqKeys, err := packInputs(msgs, reqs, s.msgKeys, s.reqKeys)
	s.msgKeys, s.reqKeys = msgKeys, reqKeys
	if err != nil {
		return err
	}
	for i, r := range reqs {
		if r.HasWildcard() {
			return fmt.Errorf("request %d: %w", i, ErrWildcard)
		}
	}
	res.reset(len(reqs))
	if len(reqs) == 0 {
		return nil
	}

	n := len(reqs)
	if len(msgs) > n {
		n = len(msgs)
	}
	primSize, secSize := tableSizes(n)
	if h.cfg.Policy == LinearProbe {
		primSize, secSize = primSize+secSize, 0
	}

	// Tables live in device global memory: slot words hold the packed
	// tuple key; a parallel index array records the request index. The
	// storage is recycled across calls; Zero starts a new generation,
	// so the tables start empty without clearing a word.
	h.workingSet = primSize + secSize
	if s.mem == nil || s.mem.Len() < primSize+secSize {
		s.mem = simt.NewMemory(primSize + secSize)
	} else {
		s.mem.Zero()
	}
	s.primIdx = grow(s.primIdx, primSize)
	s.secIdx = grow(s.secIdx, secSize)

	s.pendReq = grow(s.pendReq, len(reqs))
	for i := range s.pendReq {
		s.pendReq[i] = i
	}
	s.pendMsg = grow(s.pendMsg, len(msgs))
	for i := range s.pendMsg {
		s.pendMsg[i] = i
	}
	if s.reqMem == nil {
		s.reqMem, s.msgMem = simt.Wrap(nil), simt.Wrap(nil)
	}
	s.reqMem.Rebind(s.reqKeys)
	s.msgMem.Rebind(s.msgKeys)

	rec := h.cfg.Recorder
	base := rec.Clock()
	emitQueueDepths(rec, h.cfg.Track, len(msgs), len(reqs))

	var totalCycles float64
	var totalCtrs simt.Counters
	for {
		res.Iterations++
		inserted, insCycles, insCtrs := h.elementPhase(true, s.reqMem, &s.pendReq, nil, primSize, secSize)
		matched, probeCycles, probeCtrs := h.elementPhase(false, s.msgMem, &s.pendMsg, res.Assignment, primSize, secSize)
		rec.Span(h.cfg.Track, evMatchPass,
			base+h.model.Seconds(totalCycles), h.model.Seconds(insCycles+probeCycles),
			argInserted, int64(inserted), argMatched, int64(matched))
		rec.CounterAt(h.cfg.Track, evProbes, base+h.model.Seconds(totalCycles),
			float64(insCtrs.Atomic+probeCtrs.Atomic))
		totalCycles += insCycles + probeCycles
		totalCtrs.Add(&insCtrs)
		totalCtrs.Add(&probeCtrs)
		if len(s.pendMsg) == 0 && len(s.pendReq) == 0 {
			break
		}
		if inserted == 0 && matched == 0 {
			break // no progress through the tables
		}
	}

	// Overflow path: requests that could never enter the tables (both
	// their slots held by stale keys whose messages never arrive) are
	// matched through a linear overflow list. This extension beyond the
	// paper guarantees the engine finds every matchable pair even under
	// adversarial collision patterns; it is billed as a dependent walk.
	// (The per-key lists may allocate — this cold path sits outside the
	// zero-allocation contract of the steady-state kernels.)
	if len(s.pendMsg) > 0 && len(s.pendReq) > 0 {
		if s.byKey == nil {
			s.byKey = make(map[uint64][]int, len(s.pendReq))
		} else {
			for k := range s.byKey {
				delete(s.byKey, k)
			}
		}
		for _, ri := range s.pendReq {
			s.byKey[s.reqKeys[ri]] = append(s.byKey[s.reqKeys[ri]], ri)
		}
		for _, mi := range s.pendMsg {
			if lst := s.byKey[s.msgKeys[mi]]; len(lst) > 0 {
				res.Assignment[lst[0]] = mi
				s.byKey[s.msgKeys[mi]] = lst[1:]
			}
		}
		totalCycles += float64(len(s.pendMsg)+len(s.pendReq)) * h.model.P.GMemDep
	}
	totalCycles += h.model.P.LaunchOverhead

	res.SimSeconds = h.model.Seconds(totalCycles)
	res.Counters = totalCtrs
	if rec.Enabled() {
		occ := h.cfg.Arch.Occupancy(arch.KernelFootprint{
			ThreadsPerCTA: simt.MaxWarpsPerCTA * simt.LaneCount, RegsPerThread: 32,
		})
		if occ < 1 {
			occ = 1
		}
		emitKernelStats(rec, h.cfg.Track, base, base+res.SimSeconds, occ, totalCtrs)
	}
	return nil
}

// slots returns the probe sequence for a key: (primary slot, secondary
// slot) under TwoLevel, or a probe window under LinearProbe encoded as
// successive primary slots.
func (h *HashMatcher) primarySlot(key uint64, primSize int) int {
	return int(h.fn(key)) % primSize
}

func (h *HashMatcher) secondarySlot(key uint64, secSize int) int {
	return int(h.fn(key^0x9e3779b97f4a7c15)) % secSize
}

// warpPlan distributes the pending elements over warps and CTAs.
func (h *HashMatcher) warpPlan(pending int) (warpsTotal, warpsPerCTA int) {
	warpsTotal = (pending + simt.LaneCount - 1) / simt.LaneCount
	warpsPerCTA = (warpsTotal + h.cfg.CTAs - 1) / h.cfg.CTAs
	if warpsPerCTA > simt.MaxWarpsPerCTA {
		warpsPerCTA = simt.MaxWarpsPerCTA
	}
	return warpsTotal, warpsPerCTA
}

// elementPhase runs one element-parallel phase — request insert
// (insert=true) or message probe (insert=false) — with one thread per
// pending element, warp by warp in warp order. Each warp loads its
// elements' keys and hashes them, the policy's warp body issues the
// table CASes and returns the lanes it placed or matched, and the
// other lanes stay pending. The pending list is compacted in place
// afterwards; the phase returns the entries retired, its cycles and
// its counters.
func (h *HashMatcher) elementPhase(insert bool, keysMem *simt.Memory, pend *[]int, assign Assignment, primSize, secSize int) (int, float64, simt.Counters) {
	s := &h.scratch
	pending := len(*pend)
	if pending == 0 {
		return 0, 0, simt.Counters{}
	}
	s.still = grow(s.still, pending)
	still := s.still
	if s.warp == nil {
		s.warp = simt.NewWarp(0, new(simt.Counters))
	}
	w, l := s.warp, &s.lanes

	warpsTotal, warpsPerCTA := h.warpPlan(pending)
	perCTA := s.perCTA[:0]
	var ctaCtrs simt.Counters
	for wi := 0; wi < warpsTotal; wi++ {
		*w.Counters() = simt.Counters{}
		w.SetActive(simt.FullMask)
		base := wi * simt.LaneCount
		n := min(simt.LaneCount, pending-base) // lanes [0, n) hold an element
		w.SetActive(w.BallotMask(simt.FirstLanes(n)))
		w.Issue(1)
		copy(l.ids[:n], (*pend)[base:])
		w.LoadGlobalGather(keysMem, &l.ids, &l.keys)
		w.Issue(h.cost) // hash evaluation
		for lane := range n {
			l.home[lane] = h.primarySlot(l.keys[lane], primSize)
		}
		var won uint32
		if h.cfg.Policy == TwoLevel {
			won = h.twoLevelWarp(w, insert, assign, primSize, secSize)
		} else {
			won = h.linearWarp(w, insert, assign, primSize)
		}
		w.Issue(1)
		for lane := range n {
			still[base+lane] = won&simt.LaneMask(lane) == 0
		}
		ctaCtrs.Add(w.Counters())
		if (wi+1)%warpsPerCTA == 0 || wi == warpsTotal-1 {
			perCTA = append(perCTA, ctaCtrs)
			ctaCtrs = simt.Counters{}
		}
	}
	s.perCTA = perCTA

	cycles, ctrs := h.phaseTiming(perCTA, warpsPerCTA)
	return compactPending(pend, still), cycles, ctrs
}

// twoLevelWarp is one warp of a TwoLevel phase: the primary-table CAS,
// then the secondary-table fallback for the lanes it missed; a lane
// missing both defers to the next iteration. The primary table is
// [0, primSize) and the secondary [primSize, primSize+secSize), so
// running both CASes warp by warp gives every slot the same operation
// sequence as running each table's CASes for all warps in turn. It
// returns the lanes placed or matched.
func (h *HashMatcher) twoLevelWarp(w *simt.Warp, insert bool, assign Assignment, primSize, secSize int) uint32 {
	s := &h.scratch
	l := &s.lanes
	won := h.claim(w, insert, 0, &l.home, s.primIdx, assign)
	if miss := w.BallotMask(^won); miss != 0 {
		w.WithMask(miss, func() {
			for a := w.Active(); a != 0; a &= a - 1 {
				lane := bits.TrailingZeros32(a)
				l.slots[lane] = h.secondarySlot(l.keys[lane], secSize)
			}
			won |= h.claim(w, insert, primSize, &l.slots, s.secIdx, assign)
		})
	}
	return won
}

// linearWarp is one warp of a LinearProbe phase: bounded probing from
// each lane's home slot in the one table. An insert tries the home
// slot on every lane first; each further step votes the lanes still
// unplaced. It returns the lanes placed or matched.
func (h *HashMatcher) linearWarp(w *simt.Warp, insert bool, assign Assignment, primSize int) uint32 {
	s := &h.scratch
	l := &s.lanes
	var won uint32
	step := 0
	if insert {
		won = h.claim(w, insert, 0, &l.home, s.primIdx, assign)
		step++
	}
	for ; step < maxProbe; step++ {
		try := w.BallotMask(^won)
		if try == 0 {
			break
		}
		w.WithMask(try, func() {
			for a := w.Active(); a != 0; a &= a - 1 {
				lane := bits.TrailingZeros32(a)
				l.slots[lane] = (l.home[lane] + step) % primSize
			}
			won |= h.claim(w, insert, 0, &l.slots, s.primIdx, assign)
		})
	}
	return won
}

// claim issues one warp-wide CAS on table slot off+slots[lane] for each
// active lane. An insert swaps an empty slot (0) for the lane's key and
// records the lane's request in idx; a probe swaps the lane's key back
// to 0, which frees the slot, and assigns the slot's request the
// lane's message. It returns the lanes whose CAS succeeded. At most one
// lane wins a slot, so recording the winners after the CAS is the same
// as recording each as it swaps.
func (h *HashMatcher) claim(w *simt.Warp, insert bool, off int, slots *[simt.LaneCount]int, idx []int, assign Assignment) uint32 {
	l := &h.scratch.lanes
	var addr [simt.LaneCount]int
	for a := w.Active(); a != 0; a &= a - 1 {
		lane := bits.TrailingZeros32(a)
		addr[lane] = off + slots[lane]
	}
	old, new := &l.zero, &l.keys
	if !insert {
		old, new = new, old
	}
	won := w.AtomicCAS(h.scratch.mem, &addr, old, new)
	for a := won; a != 0; a &= a - 1 {
		lane := bits.TrailingZeros32(a)
		if insert {
			idx[slots[lane]] = l.ids[lane]
		} else {
			assign[idx[slots[lane]]] = l.ids[lane]
		}
	}
	return won
}

// phaseTiming converts one phase's per-CTA counters into cycles: waves
// of occupancy-many CTAs, plus the device-wide barrier that separates
// the insert and probe phases (the tables live in global memory, so
// each phase is its own grid launch). It also returns the summed
// counters.
func (h *HashMatcher) phaseTiming(perCTA []simt.Counters, warpsPerCTA int) (float64, simt.Counters) {
	cycles := h.model.P.LaunchOverhead * 0.15
	fp := arch.KernelFootprint{ThreadsPerCTA: warpsPerCTA * simt.LaneCount, RegsPerThread: 32, SharedMemPerCTA: 0}
	occ := h.cfg.Arch.Occupancy(fp)
	if occ < 1 {
		occ = 1
	}
	var total simt.Counters
	wave := timing.Phase{Kind: timing.Throughput, WorkingSetWords: h.workingSet}
	for start := 0; start < len(perCTA); start += occ {
		end := min(start+occ, len(perCTA))
		wave.Ctrs = simt.Counters{}
		for i := start; i < end; i++ {
			wave.Ctrs.Add(&perCTA[i])
			total.Add(&perCTA[i])
		}
		wave.ResidentWarps = (end - start) * warpsPerCTA
		cycles += h.model.PhaseCycles(&wave)
		// CTA-wide barrier closing the phase: wider CTAs pay more —
		// the reason the paper sees 32 small CTAs outperform one
		// 1024-thread CTA (110M → 150M on Kepler).
		cycles += float64(warpsPerCTA) * h.model.P.SyncCost * 0.6
	}
	return cycles, total
}

// compactPending keeps the pending entries whose still flag is set,
// compacting in place (in the real kernel this is a ballot prefix-sum
// compaction; its cost is folded into the counters already billed). It
// returns the number of entries retired.
func compactPending(pend *[]int, still []bool) int {
	src := *pend
	next := src[:0]
	for i, id := range src {
		if still[i] {
			next = append(next, id)
		}
	}
	*pend = next
	return len(src) - len(next)
}
