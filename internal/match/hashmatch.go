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
	// occ caches occupancy(w) by CTA width w in warps (0 = not yet
	// computed).
	occ [simt.MaxWarpsPerCTA + 1]int

	// Reusable scratch, grown monotonically so the steady-state Match
	// path allocates nothing (the adversarial-collision overflow list
	// is the one excluded cold path). NOT safe for concurrent Match
	// calls.
	scratch hashScratch
}

// hashScratch holds the per-call state of the hash kernels.
type hashScratch struct {
	mem     *simt.Memory // two-level (or linear) table storage
	primIdx []int        // request index held in each primary (or linear) slot
	secIdx  []int        // request index held in each secondary slot
	pendReq []int
	pendMsg []int
	reqKeys []uint64
	msgKeys []uint64
	perCTA  []simt.Counters
	byKey   map[uint64][]int

	// The call's table sizes and their reciprocals (see reciprocal);
	// secSize is 0 under LinearProbe.
	primSize, secSize   int
	primRecip, secRecip uint64
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
// primary five times that (the paper's ratio). It refuses a batch of
// more than 2^29 elements, whose tables (LinearProbe's joined too)
// would reach the 2^32 slots below which slot hashing is exact (see
// reciprocal).
func tableSizes(n int) (int, int, error) {
	if n > 1<<29 {
		return 0, 0, fmt.Errorf("hash matcher: %d elements exceed 2^29, the most whose tables stay below 2^32 slots", n)
	}
	s := 64
	for s < n {
		s *= 2
	}
	return 5 * s, s, nil
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
	primSize, secSize, err := tableSizes(max(len(msgs), len(reqs)))
	if err != nil {
		return err
	}
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

	if h.cfg.Policy == LinearProbe {
		primSize, secSize = primSize+secSize, 0
	}
	s.primSize, s.secSize = primSize, secSize
	s.primRecip = reciprocal(primSize)
	if secSize > 0 {
		s.secRecip = reciprocal(secSize)
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

	rec := h.cfg.Recorder
	base := rec.Clock()
	emitQueueDepths(rec, h.cfg.Track, len(msgs), len(reqs))

	var totalCycles float64
	var totalCtrs simt.Counters
	for {
		res.Iterations++
		inserted, insCycles, insCtrs := h.elementPhase(true, s.reqKeys, &s.pendReq, nil)
		matched, probeCycles, probeCtrs := h.elementPhase(false, s.msgKeys, &s.pendMsg, res.Assignment)
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
		emitKernelStats(rec, h.cfg.Track, base, base+res.SimSeconds, h.occupancy(simt.MaxWarpsPerCTA), totalCtrs)
	}
	return nil
}

// primarySlot returns a key's slot in the primary table, which under
// LinearProbe is its home slot in the one table.
func (h *HashMatcher) primarySlot(key uint64) int {
	return fastMod(h.fn(key), h.scratch.primRecip, h.scratch.primSize)
}

// secondarySlot returns a key's slot in the TwoLevel secondary table.
func (h *HashMatcher) secondarySlot(key uint64) int {
	return fastMod(h.fn(key^0x9e3779b97f4a7c15), h.scratch.secRecip, h.scratch.secSize)
}

// reciprocal returns ceil(2^64/d), with which fastMod takes a 32-bit
// hash modulo d without a division (Lemire, Kaser and Kurz, "Faster
// Remainder by Direct Computation", 2019). The remainder is exact for
// every 32-bit dividend when 0 < d < 2^32; tableSizes refuses batches
// whose tables would not fit, so another d is a bug and panics.
func reciprocal(d int) uint64 {
	if d <= 0 || uint64(d) >= 1<<32 {
		panic(fmt.Sprintf("match: hash table size %d outside (0, 2^32)", d))
	}
	return ^uint64(0)/uint64(d) + 1
}

// fastMod returns x mod d, given recip = reciprocal(d).
func fastMod(x uint32, recip uint64, d int) int {
	hi, _ := bits.Mul64(recip*uint64(x), uint64(d))
	return int(hi)
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
// pending element, warp by warp in warp order. Each warp gathers its
// elements' keys (keys[id] for pending element id) and hashes them,
// then issues the policy's table CASes: TwoLevel tries every lane's
// primary slot and then the secondary slot of the lanes that missed;
// LinearProbe steps from each lane's home slot, at most maxProbe
// times. Lanes placed or matched retire; the rest stay pending, packed
// in order to the front of the pending list as each warp finishes (the
// real kernel's ballot prefix-sum compaction, whose cost is folded into
// the counters billed). The phase returns the entries retired, its
// cycles and its counters.
//
// A warp runs as one host pass over its lanes, and bills into its
// CTA's sum what the warp-synchronous kernel issues: the bounds ballot,
// one ALU op plus the hash's cost, the key gather's load and distinct
// segments and a closing ALU op; per CAS round one atomic and the
// round's distinct slot segments; per fallback or probe step one
// ballot, plus a branch when some lane takes it. That kernel, written
// on simt.Warp's gather and CAS primitives, is kept in the tests as
// the reference this pass must equal bit for bit. The secondary table
// follows the primary in one memory, so running both of a warp's CAS
// rounds before the next warp's gives every slot the same operation
// sequence as running each table's rounds for all warps in turn.
func (h *HashMatcher) elementPhase(insert bool, keys []uint64, pend *[]int, assign Assignment) (int, float64, simt.Counters) {
	s := &h.scratch
	list := *pend
	pending, kept := len(list), 0
	if pending == 0 {
		return 0, 0, simt.Counters{}
	}
	warpsTotal, warpsPerCTA := h.warpPlan(pending)
	perCTA := s.perCTA[:0]
	var cta simt.Counters
	// Per lane: the element, its home slot and the table address of its
	// current CAS.
	var ids, home, addr [simt.LaneCount]int
	for wi := 0; wi < warpsTotal; wi++ {
		base := wi * simt.LaneCount
		n := copy(ids[:], list[base:])
		active := simt.FirstLanes(n)
		cta.Ballot++                  // the bounds vote
		cta.ALU += uint64(2 + h.cost) // set-up, hash and closing ops
		var keySegs uint64
		for lane, id := range ids[:n] {
			keySegs |= 1 << (uint(id) / simt.SegmentWords)
			home[lane] = h.primarySlot(keys[id])
		}
		cta.GMemLoad++
		cta.GMemTrans += segments(len(keys) <= window, keySegs, active, &ids)
		var won uint32
		if h.cfg.Policy == TwoLevel {
			won = h.casRound(&cta, insert, active, 0, &home, &ids, keys, s.primIdx, assign)
			cta.Ballot++
			if miss := active &^ won; miss != 0 {
				cta.Branch++
				for a := miss; a != 0; a &= a - 1 {
					lane := bits.TrailingZeros32(a)
					addr[lane] = s.primSize + h.secondarySlot(keys[ids[lane]])
				}
				won |= h.casRound(&cta, insert, miss, s.primSize, &addr, &ids, keys, s.secIdx, assign)
			}
		} else {
			// An insert tries every home slot first; each further step
			// votes the lanes still unplaced.
			step := 0
			if insert {
				won = h.casRound(&cta, insert, active, 0, &home, &ids, keys, s.primIdx, assign)
				step++
			}
			for ; step < maxProbe; step++ {
				cta.Ballot++
				try := active &^ won
				if try == 0 {
					break
				}
				cta.Branch++
				for a := try; a != 0; a &= a - 1 {
					lane := bits.TrailingZeros32(a)
					if addr[lane] = home[lane] + step; addr[lane] >= s.primSize {
						addr[lane] -= s.primSize
					}
				}
				won |= h.casRound(&cta, insert, try, 0, &addr, &ids, keys, s.primIdx, assign)
			}
		}
		for a := active &^ won; a != 0; a &= a - 1 {
			// kept <= base+lane: the slot written belongs to this warp or
			// an earlier one, whose ids are already read into ids.
			list[kept] = ids[bits.TrailingZeros32(a)]
			kept++
		}
		if (wi+1)%warpsPerCTA == 0 || wi == warpsTotal-1 {
			perCTA = append(perCTA, cta)
			cta = simt.Counters{}
		}
	}
	s.perCTA = perCTA

	*pend = list[:kept]
	cycles, ctrs := h.phaseTiming(perCTA, warpsPerCTA)
	return pending - kept, cycles, ctrs
}

// casRound is one warp-wide CAS round on table word addr[lane] for
// each lane of mask, in ascending lane order, so intra-warp contention
// resolves to the lowest contending lane (as simt.Warp.AtomicCAS
// does). The table starts at word off and idx holds its slots' request
// indices. An insert swaps an empty slot (0) for the lane's key and
// records the lane's request in idx; a probe swaps the lane's key back
// to 0, which frees the slot, and assigns the slot's request the
// lane's message. It bills one atomic and the round's distinct
// segments into c and returns the lanes whose CAS succeeded.
func (h *HashMatcher) casRound(c *simt.Counters, insert bool, mask uint32, off int, addr, ids *[simt.LaneCount]int, keys []uint64, idx []int, assign Assignment) uint32 {
	mem := h.scratch.mem
	var won uint32
	var segs uint64
	for a := mask; a != 0; a &= a - 1 {
		lane := bits.TrailingZeros32(a)
		segs |= 1 << (uint(addr[lane]-off) / simt.SegmentWords)
		old, new := uint64(0), keys[ids[lane]]
		if !insert {
			old, new = new, old
		}
		if _, ok := mem.CAS(addr[lane], old, new); !ok {
			continue
		}
		won |= simt.LaneMask(lane)
		if insert {
			idx[addr[lane]-off] = ids[lane]
		} else {
			assign[idx[addr[lane]-off]] = ids[lane]
		}
	}
	c.Atomic++
	c.GMemTrans += segments(len(idx) <= window, segs, mask, addr)
	return won
}

// window is the span, in words, of the 64 segments a uint64 holds one
// bit each of.
const window = 64 * simt.SegmentWords

// segments returns the distinct segments of a warp access by mask's
// lanes to words addr[lane]. When narrow says every address lies in one
// window from a segment-aligned base (the key array starts at word 0,
// and each table at a multiple of 64 words), that is the popcount of
// set, in which each lane set the bit of its segment above the base as
// it computed its address; otherwise simt.GatherSegments counts them.
// Both give the same count; the narrow path is kept because it is
// cheaper on the host. With it deleted, hash_exact's cpu_ns_msg lost
// all ten alternating 3 s pairs on a 2-vCPU host, median 566 → 608
// ns/msg (+7%).
func segments(narrow bool, set uint64, mask uint32, addr *[simt.LaneCount]int) uint64 {
	if narrow {
		return uint64(bits.OnesCount64(set))
	}
	return simt.GatherSegments(mask, addr)
}

// occupancy returns the CTAs of warpsPerCTA warps resident on one SM
// (at least 1), computed once per width.
func (h *HashMatcher) occupancy(warpsPerCTA int) int {
	if h.occ[warpsPerCTA] == 0 {
		fp := arch.KernelFootprint{ThreadsPerCTA: warpsPerCTA * simt.LaneCount, RegsPerThread: 32}
		h.occ[warpsPerCTA] = max(1, h.cfg.Arch.Occupancy(fp))
	}
	return h.occ[warpsPerCTA]
}

// phaseTiming converts one phase's per-CTA counters into cycles: waves
// of occupancy-many CTAs, plus the device-wide barrier that separates
// the insert and probe phases (the tables live in global memory, so
// each phase is its own grid launch). It also returns the summed
// counters.
func (h *HashMatcher) phaseTiming(perCTA []simt.Counters, warpsPerCTA int) (float64, simt.Counters) {
	cycles := h.model.P.LaunchOverhead * 0.15
	occ := h.occupancy(warpsPerCTA)
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
