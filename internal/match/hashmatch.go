package match

import (
	"fmt"

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
	// Workers bounds the host goroutines simulating warps in parallel:
	// 0 = auto (inline below the simt fan-out grain, else GOMAXPROCS;
	// a sub-phase's work is its pending lanes), 1 = sequential, N ≥ 2
	// = always N. Only the TwoLevel policy
	// parallelizes: its primary and secondary CAS traffic target
	// disjoint address ranges, so staging the operations concurrently
	// and committing them in thread order is bit-identical to the
	// sequential interleaving. LinearProbe's probe steps share one
	// address space and always run sequentially.
	Workers int
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
	warps   []*hashWarp
	byKey   map[uint64][]int

	// ph carries the state of the current two-level sub-phase so the
	// three worker bodies can be persistent method values (fresh
	// closures per phase would allocate; see matrixScratch.scan).
	ph struct {
		insert            bool
		keysMem           *simt.Memory
		pendList          []int
		pending           int
		assign            Assignment
		primSize, secSize int
		still             []bool
	}
	stageFn, foldFn, finishFn func(int)
}

// hashWarp is one warp's persistent state across the sub-phases of a
// phase-split kernel: its simulated warp (with a private counter sink),
// per-lane registers, and staged CAS traffic.
type hashWarp struct {
	w       *simt.Warp
	ids     [simt.LaneCount]int
	keys    [simt.LaneCount]uint64
	placedA [simt.LaneCount]bool // placed/matched via the primary table
	placedB [simt.LaneCount]bool // placed/matched via the secondary table
	prim    []simt.CASIntent
	sec     []simt.CASIntent
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
		var inserted, matched int
		var insCycles, probeCycles float64
		var insCtrs, probeCtrs simt.Counters
		if h.cfg.Policy == TwoLevel {
			inserted, insCycles, insCtrs = h.twoLevelPhase(true, s.reqMem, &s.pendReq, nil, primSize, secSize)
			matched, probeCycles, probeCtrs = h.twoLevelPhase(false, s.msgMem, &s.pendMsg, res.Assignment, primSize, secSize)
		} else {
			inserted, insCycles, insCtrs = h.insertProbePhase(s.mem, primSize, s.primIdx, s.reqKeys, &s.pendReq)
			matched, probeCycles, probeCtrs = h.probeLinearPhase(s.mem, primSize, s.primIdx, s.msgKeys, &s.pendMsg, res.Assignment)
		}
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

// twoLevelPhase runs one element-parallel phase — request insert
// (insert=true) or message probe (insert=false) — of the two-level
// policy. The warp bodies are phase-split so host goroutines can
// simulate them concurrently while staying bit-identical to sequential
// warp-major execution: warps stage their primary CAS traffic in
// parallel, the intents commit sequentially in thread order, then the
// fallback round runs the same way against the secondary table. The
// reordering is sound because primary ops touch only [0, primSize) and
// secondary ops only [primSize, primSize+secSize): an operation's
// outcome depends solely on earlier operations to the same table, and
// the order within each table is preserved.
func (h *HashMatcher) twoLevelPhase(insert bool, keysMem *simt.Memory, pend *[]int, assign Assignment, primSize, secSize int) (int, float64, simt.Counters) {
	s := &h.scratch
	pending := len(*pend)
	if pending == 0 {
		return 0, 0, simt.Counters{}
	}
	if cap(s.still) < pending {
		s.still = make([]bool, pending)
	}
	still := s.still[:pending]
	pendList := *pend

	warpsTotal, warpsPerCTA := h.warpPlan(pending)
	for len(s.warps) < warpsTotal {
		s.warps = append(s.warps, &hashWarp{w: simt.NewWarp(len(s.warps)%simt.MaxWarpsPerCTA, new(simt.Counters))})
	}

	s.ph.insert, s.ph.keysMem, s.ph.assign = insert, keysMem, assign
	s.ph.pendList, s.ph.pending = pendList, pending
	s.ph.primSize, s.ph.secSize = primSize, secSize
	s.ph.still = still
	if s.stageFn == nil {
		s.stageFn, s.foldFn, s.finishFn = h.stagePrimary, h.foldPrimary, h.foldSecondary
	}

	// Each sub-phase hands out one pass per pending lane; below the
	// simt grain that is cheaper to run inline.
	workers := simt.WorkersFor(h.cfg.Workers, pending)

	// Sub-phase 1 (parallel): load keys, hash, stage the primary CAS.
	simt.ParallelFor(warpsTotal, workers, s.stageFn)
	for wi := 0; wi < warpsTotal; wi++ {
		simt.ApplyCAS(s.mem, s.warps[wi].prim)
	}

	// Sub-phase 2 (parallel): fold primary outcomes (successful CAS
	// targets are unique addresses, so the index/assignment writes are
	// disjoint), then stage the secondary fallback for the misses.
	simt.ParallelFor(warpsTotal, workers, s.foldFn)
	for wi := 0; wi < warpsTotal; wi++ {
		simt.ApplyCAS(s.mem, s.warps[wi].sec)
	}

	// Sub-phase 3 (parallel): fold secondary outcomes, mark survivors.
	simt.ParallelFor(warpsTotal, workers, s.finishFn)
	s.ph.keysMem, s.ph.assign, s.ph.pendList, s.ph.still = nil, nil, nil, nil

	// Per-CTA counters, summed in warp order.
	nCTAs := (warpsTotal + warpsPerCTA - 1) / warpsPerCTA
	perCTA := s.perCTA[:0]
	for c := 0; c < nCTAs; c++ {
		var ctrs simt.Counters
		for wi := c * warpsPerCTA; wi < warpsTotal && wi < (c+1)*warpsPerCTA; wi++ {
			ctrs.Add(s.warps[wi].w.Counters())
		}
		perCTA = append(perCTA, ctrs)
	}
	s.perCTA = perCTA

	cycles, ctrs := h.phaseTiming(perCTA, warpsPerCTA)
	return compactPending(pend, still), cycles, ctrs
}

// stagePrimary is sub-phase 1 of twoLevelPhase for one warp (state in
// h.scratch.ph): reset the warp, load the pending keys, hash, and
// stage the primary-table CAS. Installed once as a persistent method
// value; see hashScratch.ph.
func (h *HashMatcher) stagePrimary(wi int) {
	s := &h.scratch
	ws := s.warps[wi]
	w := ws.w
	*w.Counters() = simt.Counters{}
	w.SetActive(simt.FullMask)
	ws.placedA = [simt.LaneCount]bool{}
	ws.placedB = [simt.LaneCount]bool{}
	base := wi * simt.LaneCount
	active := w.BallotMask(simt.FirstLanes(s.ph.pending - base))
	w.SetActive(active)
	w.Exec(1, func(lane int) { ws.ids[lane] = s.ph.pendList[base+lane] })
	w.LoadGlobal(s.ph.keysMem,
		func(lane int) int { return ws.ids[lane] },
		func(lane int, v uint64) { ws.keys[lane] = v })
	w.Exec(h.cost, func(lane int) {}) // hash evaluation
	if s.ph.insert {
		ws.prim = w.StageCAS(ws.prim[:0],
			func(lane int) int { return h.primarySlot(ws.keys[lane], s.ph.primSize) },
			func(int) uint64 { return 0 },
			func(lane int) uint64 { return ws.keys[lane] })
	} else {
		ws.prim = w.StageCAS(ws.prim[:0],
			func(lane int) int { return h.primarySlot(ws.keys[lane], s.ph.primSize) },
			func(lane int) uint64 { return ws.keys[lane] },
			func(int) uint64 { return 0 })
	}
}

// foldPrimary is sub-phase 2 for one warp: fold the primary CAS
// outcomes and stage the secondary fallback for the misses.
func (h *HashMatcher) foldPrimary(wi int) {
	s := &h.scratch
	ws := s.warps[wi]
	w := ws.w
	for i := range ws.prim {
		in := &ws.prim[i]
		if !in.Swapped {
			continue
		}
		ws.placedA[in.Lane] = true
		if s.ph.insert {
			s.primIdx[in.Addr] = ws.ids[in.Lane]
		} else {
			s.ph.assign[s.primIdx[in.Addr]] = ws.ids[in.Lane]
		}
	}
	secMask := w.Ballot(func(lane int) bool { return !ws.placedA[lane] })
	ws.sec = ws.sec[:0]
	if secMask != 0 {
		w.WithMask(secMask, func() {
			if s.ph.insert {
				ws.sec = w.StageCAS(ws.sec,
					func(lane int) int { return s.ph.primSize + h.secondarySlot(ws.keys[lane], s.ph.secSize) },
					func(int) uint64 { return 0 },
					func(lane int) uint64 { return ws.keys[lane] })
			} else {
				ws.sec = w.StageCAS(ws.sec,
					func(lane int) int { return s.ph.primSize + h.secondarySlot(ws.keys[lane], s.ph.secSize) },
					func(lane int) uint64 { return ws.keys[lane] },
					func(int) uint64 { return 0 })
			}
		})
	}
}

// foldSecondary is sub-phase 3 for one warp: fold the secondary CAS
// outcomes and mark the still-unplaced survivors.
func (h *HashMatcher) foldSecondary(wi int) {
	s := &h.scratch
	ws := s.warps[wi]
	w := ws.w
	for i := range ws.sec {
		in := &ws.sec[i]
		if !in.Swapped {
			continue
		}
		ws.placedB[in.Lane] = true
		if s.ph.insert {
			s.secIdx[in.Addr-s.ph.primSize] = ws.ids[in.Lane]
		} else {
			s.ph.assign[s.secIdx[in.Addr-s.ph.primSize]] = ws.ids[in.Lane]
		}
	}
	base := wi * simt.LaneCount
	w.Exec(1, func(lane int) { s.ph.still[base+lane] = !ws.placedA[lane] && !ws.placedB[lane] })
	w.SetActive(simt.FullMask)
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

// insertProbePhase inserts pending requests under the LinearProbe
// ablation: one thread per request, bounded probing from the home slot.
// Probe steps share one address space, so this path stays sequential
// (see HashConfig.Workers).
func (h *HashMatcher) insertProbePhase(mem *simt.Memory, primSize int, primIdx []int, reqKeys []uint64, pend *[]int) (int, float64, simt.Counters) {
	keysMem := simt.Wrap(reqKeys)
	return h.runElementKernel(pend, func(w *simt.Warp, warpBase int, keep func(lane int, stillPending bool)) {
		var ids [simt.LaneCount]int
		var keys [simt.LaneCount]uint64
		w.Exec(1, func(lane int) { ids[lane] = (*pend)[warpBase+lane] })
		w.LoadGlobal(keysMem,
			func(lane int) int { return ids[lane] },
			func(lane int, v uint64) { keys[lane] = v })
		w.Exec(h.cost, func(lane int) {}) // hash evaluation

		// Home-slot attempt (unmasked), then bounded probing.
		var done [simt.LaneCount]bool
		w.AtomicCAS(mem,
			func(lane int) int { return h.primarySlot(keys[lane], primSize) },
			func(lane int) uint64 { return 0 },
			func(lane int) uint64 { return keys[lane] },
			func(lane int, prev uint64, swapped bool) {
				if swapped {
					primIdx[h.primarySlot(keys[lane], primSize)] = ids[lane]
					done[lane] = true
				}
			})
		for step := 1; step < maxProbe; step++ {
			tryMask := w.Ballot(func(lane int) bool { return !done[lane] })
			if tryMask == 0 {
				break
			}
			step := step
			w.WithMask(tryMask, func() {
				w.AtomicCAS(mem,
					func(lane int) int { return (h.primarySlot(keys[lane], primSize) + step) % primSize },
					func(lane int) uint64 { return 0 },
					func(lane int) uint64 { return keys[lane] },
					func(lane int, prev uint64, swapped bool) {
						if swapped {
							slot := (h.primarySlot(keys[lane], primSize) + step) % primSize
							primIdx[slot] = ids[lane]
							done[lane] = true
						}
					})
			})
		}
		w.Exec(1, func(lane int) { keep(lane, !done[lane]) })
	})
}

// probeLinearPhase matches pending messages under LinearProbe: a
// successful claim CASes the slot back to empty, which both records the
// match and frees the slot for later inserts.
func (h *HashMatcher) probeLinearPhase(mem *simt.Memory, primSize int, primIdx []int, msgKeys []uint64, pend *[]int, assign Assignment) (int, float64, simt.Counters) {
	keysMem := simt.Wrap(msgKeys)
	return h.runElementKernel(pend, func(w *simt.Warp, warpBase int, keep func(lane int, stillPending bool)) {
		var ids [simt.LaneCount]int
		var keys [simt.LaneCount]uint64
		w.Exec(1, func(lane int) { ids[lane] = (*pend)[warpBase+lane] })
		w.LoadGlobal(keysMem,
			func(lane int) int { return ids[lane] },
			func(lane int, v uint64) { keys[lane] = v })
		w.Exec(h.cost, func(lane int) {}) // hash evaluation

		var matched [simt.LaneCount]bool
		for step := 0; step < maxProbe; step++ {
			tryMask := w.Ballot(func(lane int) bool { return !matched[lane] })
			if tryMask == 0 {
				break
			}
			step := step
			w.WithMask(tryMask, func() {
				w.AtomicCAS(mem,
					func(lane int) int { return (h.primarySlot(keys[lane], primSize) + step) % primSize },
					func(lane int) uint64 { return keys[lane] },
					func(lane int) uint64 { return 0 },
					func(lane int, prev uint64, swapped bool) {
						if swapped {
							slot := (h.primarySlot(keys[lane], primSize) + step) % primSize
							assign[primIdx[slot]] = ids[lane]
							matched[lane] = true
						}
					})
			})
		}
		w.Exec(1, func(lane int) { keep(lane, !matched[lane]) })
	})
}

// runElementKernel runs body once per warp of pending elements,
// sequentially in warp order, reusing the pooled warps; body receives a
// callback to mark which lanes remain pending, and the pending list is
// compacted in place afterwards.
func (h *HashMatcher) runElementKernel(pend *[]int, body func(w *simt.Warp, warpBase int, keep func(lane int, stillPending bool))) (int, float64, simt.Counters) {
	s := &h.scratch
	pending := len(*pend)
	if pending == 0 {
		return 0, 0, simt.Counters{}
	}
	if cap(s.still) < pending {
		s.still = make([]bool, pending)
	}
	still := s.still[:pending]

	warpsTotal, warpsPerCTA := h.warpPlan(pending)
	for len(s.warps) < warpsTotal {
		s.warps = append(s.warps, &hashWarp{w: simt.NewWarp(len(s.warps)%simt.MaxWarpsPerCTA, new(simt.Counters))})
	}

	perCTA := s.perCTA[:0]
	var ctaCtrs simt.Counters
	for wi := 0; wi < warpsTotal; wi++ {
		w := s.warps[wi].w
		*w.Counters() = simt.Counters{}
		w.SetActive(simt.FullMask)
		base := wi * simt.LaneCount
		active := w.BallotMask(simt.FirstLanes(pending - base))
		w.SetActive(active)
		body(w, base, func(lane int, stillPending bool) {
			if base+lane < pending {
				still[base+lane] = stillPending
			}
		})
		w.SetActive(simt.FullMask)
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
