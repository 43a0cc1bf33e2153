package match

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/hash"
	"simtmp/internal/simt"
	"simtmp/internal/timing"
	"simtmp/internal/workload"
)

// The hash engine's element phases in their warp-synchronous form, as
// the kernel was first written: each warp's key gather and table CASes
// go through simt.Warp's LoadGlobalGather and AtomicCAS, which remain
// the billing definition, slots are taken with %, and occupancy is
// computed per phase. HashMatcher.elementPhase runs the same kernel as
// one host pass over each warp's lanes; TestHashPhasesMatchWarpReference
// requires the two to agree bit for bit.

// refHash runs HashMatcher calls with the warp-form element phases. It
// owns a matcher of its own and uses that matcher's table scratch, so
// repeated calls also exercise scratch reuse.
type refHash struct {
	h              *HashMatcher
	warp           *simt.Warp
	lanes          hashLanes
	reqMem, msgMem *simt.Memory
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

func newRefHash(cfg HashConfig) *refHash {
	return &refHash{
		h:      MustHashMatcher(cfg),
		warp:   simt.NewWarp(0, new(simt.Counters)),
		reqMem: simt.Wrap(nil),
		msgMem: simt.Wrap(nil),
	}
}

// refSlot returns a key's slot in a table of size slots: hashed as is
// for the primary table, salted for the secondary one.
func refSlot(fn hash.Func, key uint64, secondary bool, slots int) int {
	if secondary {
		key ^= 0x9e3779b97f4a7c15
	}
	return int(fn(key)) % slots
}

// MatchInto is HashMatcher.MatchInto with the warp-form phases.
func (r *refHash) MatchInto(res *Result, msgs []envelope.Envelope, reqs []envelope.Request) error {
	h, s := r.h, &r.h.scratch
	msgKeys, reqKeys, err := packInputs(msgs, reqs, s.msgKeys, s.reqKeys)
	s.msgKeys, s.reqKeys = msgKeys, reqKeys
	if err != nil {
		return err
	}
	res.reset(len(reqs))
	if len(reqs) == 0 {
		return nil
	}
	primSize, secSize, err := tableSizes(max(len(msgs), len(reqs)))
	if err != nil {
		return err
	}
	if h.cfg.Policy == LinearProbe {
		primSize, secSize = primSize+secSize, 0
	}
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
	r.reqMem.Rebind(s.reqKeys)
	r.msgMem.Rebind(s.msgKeys)

	var totalCycles float64
	for {
		res.Iterations++
		inserted, insCycles, insCtrs := r.elementPhase(true, r.reqMem, &s.pendReq, nil, primSize, secSize)
		matched, probeCycles, probeCtrs := r.elementPhase(false, r.msgMem, &s.pendMsg, res.Assignment, primSize, secSize)
		totalCycles += insCycles + probeCycles
		res.Counters.Add(&insCtrs)
		res.Counters.Add(&probeCtrs)
		if len(s.pendMsg) == 0 && len(s.pendReq) == 0 || inserted == 0 && matched == 0 {
			break
		}
	}
	if len(s.pendMsg) > 0 && len(s.pendReq) > 0 {
		byKey := make(map[uint64][]int)
		for _, ri := range s.pendReq {
			byKey[s.reqKeys[ri]] = append(byKey[s.reqKeys[ri]], ri)
		}
		for _, mi := range s.pendMsg {
			if lst := byKey[s.msgKeys[mi]]; len(lst) > 0 {
				res.Assignment[lst[0]] = mi
				byKey[s.msgKeys[mi]] = lst[1:]
			}
		}
		totalCycles += float64(len(s.pendMsg)+len(s.pendReq)) * h.model.P.GMemDep
	}
	totalCycles += h.model.P.LaunchOverhead
	res.SimSeconds = h.model.Seconds(totalCycles)
	return nil
}

// elementPhase is one phase in warp form: each warp loads its
// elements' keys and hashes them, the policy's warp body issues the
// table CASes and returns the lanes it placed or matched, and the
// other lanes stay pending.
func (r *refHash) elementPhase(insert bool, keysMem *simt.Memory, pend *[]int, assign Assignment, primSize, secSize int) (int, float64, simt.Counters) {
	h, w, l := r.h, r.warp, &r.lanes
	pending := len(*pend)
	if pending == 0 {
		return 0, 0, simt.Counters{}
	}
	still := make([]bool, pending)
	warpsTotal, warpsPerCTA := h.warpPlan(pending)
	var perCTA []simt.Counters
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
			l.home[lane] = refSlot(h.fn, l.keys[lane], false, primSize)
		}
		var won uint32
		if h.cfg.Policy == TwoLevel {
			won = r.twoLevelWarp(insert, assign, primSize, secSize)
		} else {
			won = r.linearWarp(insert, assign, primSize)
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
	cycles, ctrs := r.phaseTiming(perCTA, warpsPerCTA)
	return compactPending(pend, still), cycles, ctrs
}

// twoLevelWarp is one warp of a TwoLevel phase: the primary-table CAS,
// then the secondary-table fallback for the lanes it missed; a lane
// missing both defers to the next iteration.
func (r *refHash) twoLevelWarp(insert bool, assign Assignment, primSize, secSize int) uint32 {
	w, l, s := r.warp, &r.lanes, &r.h.scratch
	won := r.claim(insert, 0, &l.home, s.primIdx, assign)
	if miss := w.BallotMask(^won); miss != 0 {
		w.WithMask(miss, func() {
			for a := w.Active(); a != 0; a &= a - 1 {
				lane := bits.TrailingZeros32(a)
				l.slots[lane] = refSlot(r.h.fn, l.keys[lane], true, secSize)
			}
			won |= r.claim(insert, primSize, &l.slots, s.secIdx, assign)
		})
	}
	return won
}

// linearWarp is one warp of a LinearProbe phase: bounded probing from
// each lane's home slot. An insert tries the home slot on every lane
// first; each further step votes the lanes still unplaced.
func (r *refHash) linearWarp(insert bool, assign Assignment, primSize int) uint32 {
	w, l, s := r.warp, &r.lanes, &r.h.scratch
	var won uint32
	step := 0
	if insert {
		won = r.claim(insert, 0, &l.home, s.primIdx, assign)
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
			won |= r.claim(insert, 0, &l.slots, s.primIdx, assign)
		})
	}
	return won
}

// claim issues one warp-wide CAS on table slot off+slots[lane] for each
// active lane and records the winners after it: an insert records the
// lane's request in idx, a probe assigns the slot's request the lane's
// message.
func (r *refHash) claim(insert bool, off int, slots *[simt.LaneCount]int, idx []int, assign Assignment) uint32 {
	w, l := r.warp, &r.lanes
	var addr [simt.LaneCount]int
	for a := w.Active(); a != 0; a &= a - 1 {
		lane := bits.TrailingZeros32(a)
		addr[lane] = off + slots[lane]
	}
	old, new := &l.zero, &l.keys
	if !insert {
		old, new = new, old
	}
	won := w.AtomicCAS(r.h.scratch.mem, &addr, old, new)
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

// phaseTiming is HashMatcher.phaseTiming with the occupancy computed
// afresh.
func (r *refHash) phaseTiming(perCTA []simt.Counters, warpsPerCTA int) (float64, simt.Counters) {
	h := r.h
	cycles := h.model.P.LaunchOverhead * 0.15
	occ := h.cfg.Arch.Occupancy(arch.KernelFootprint{ThreadsPerCTA: warpsPerCTA * simt.LaneCount, RegsPerThread: 32})
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
		cycles += float64(warpsPerCTA) * h.model.P.SyncCost * 0.6
	}
	return cycles, total
}

// adversarialBatch prepends to reqs the requests that keep one
// matchable request out of both tables for good, and appends its
// message to msgs, so the call must finish through the overflow list.
// Every injected tuple sits on communicator 1, which the generated
// workload never uses. Under TwoLevel the stuck request's primary slot
// p and secondary slot s are taken first: p by a request hashing there,
// s by a request whose own primary slot q is taken by a third. Under
// LinearProbe eight requests take the stuck request's whole probe
// window p..p+7.
func adversarialBatch(fn hash.Func, policy CollisionPolicy, msgs []envelope.Envelope, reqs []envelope.Request) ([]envelope.Envelope, []envelope.Request) {
	injected := 4 // three blockers and the stuck request
	if policy == LinearProbe {
		injected = 1 + maxProbe
	}
	primSize, secSize, _ := tableSizes(max(len(msgs)+1, len(reqs)+injected))
	if policy == LinearProbe {
		primSize, secSize = primSize+secSize, 0
	}
	// Tuples are drawn through a bijection of a counter, so they are
	// distinct and vary every field bit.
	tuple := uint64(0)
	next := func() envelope.Request {
		tuple++
		x := tuple * 0x9e3779b97 & (1<<36 - 1)
		return envelope.Request{Src: envelope.Rank(x >> 16), Tag: envelope.Tag(x) & envelope.MaxTag, Comm: 1}
	}
	slots := func(r envelope.Request) (prim, sec int) {
		prim, sec = refSlot(fn, r.Key(), false, primSize), -1
		if secSize > 0 {
			sec = refSlot(fn, r.Key(), true, secSize)
		}
		return prim, sec
	}
	// find returns the next request whose slots pass ok, giving up after
	// a budget well above the expected number of draws.
	find := func(ok func(prim, sec int) bool) (envelope.Request, bool) {
		for range 64 * primSize {
			if r := next(); ok(slots(r)) {
				return r, true
			}
		}
		return envelope.Request{}, false
	}
	var stuck envelope.Request
	var blockers []envelope.Request
	for found := false; !found; {
		stuck, blockers, found = next(), blockers[:0], true
		p, s := slots(stuck)
		if policy == TwoLevel {
			onS, ok := find(func(prim, sec int) bool { return sec == s && prim != p })
			q, _ := slots(onS)
			onP, okP := find(func(prim, _ int) bool { return prim == p })
			onQ, okQ := find(func(prim, _ int) bool { return prim == q })
			blockers, found = append(blockers, onP, onQ, onS), ok && okP && okQ
			continue
		}
		// Two blockers per even offset: one takes the slot, the other the
		// next one on its first probe step, ahead of the stuck request.
		// (Sealed keys have a fixed byte parity, so FNV-1a reaches only
		// every other slot.)
		for step := 0; step < maxProbe && found; step++ {
			var r envelope.Request
			r, found = find(func(prim, _ int) bool { return prim == (p+step&^1)%primSize })
			blockers = append(blockers, r)
		}
	}
	out := append(append(blockers, stuck), reqs...)
	msg := envelope.Envelope{Src: stuck.Src, Tag: stuck.Tag, Comm: stuck.Comm}
	return append(slices.Clip(msgs), msg), out
}

// TestHashPhasesMatchWarpReference drives production hash matchers and
// warp-form references with identical random call sequences — both
// policies, every hash function, 1 to 32 CTAs, batches of 0 to ~3000
// elements, duplicate tuples, unmatched elements on both sides and
// adversarial collisions that end in the overflow list — and requires
// bit-identical results. Each pair of instances takes several calls,
// so scratch reuse across batch sizes is covered too.
func TestHashPhasesMatchWarpReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	overflowed := 0
	for _, policy := range []CollisionPolicy{TwoLevel, LinearProbe} {
		for _, name := range hash.Names() {
			for _, ctas := range []int{1, 2 + rng.Intn(30), 32} {
				cfg := HashConfig{CTAs: ctas, HashName: name, Policy: policy}
				prod, ref := MustHashMatcher(cfg), newRefHash(cfg)
				var got, want Result
				for call := range 8 {
					n := []int{0, 1 + rng.Intn(40), 1 + rng.Intn(400), 1000 + rng.Intn(2100)}[rng.Intn(4)]
					wc := workload.Config{
						N: n, Requests: 1 + n*(1+rng.Intn(3))/2, MatchFraction: 0.3 + 0.7*rng.Float64(),
						Peers: 1 + rng.Intn(16), Tags: []int{2, 8, 1024}[rng.Intn(3)], Seed: rng.Int63(),
					}
					if rng.Intn(4) == 0 && n <= 2000 {
						wc.Unique, wc.Peers = true, 64
					}
					var msgs []envelope.Envelope
					var reqs []envelope.Request
					if n > 0 {
						msgs, reqs = workload.Generate(wc)
					}
					switch rng.Intn(8) {
					case 0:
						reqs = reqs[:0]
					case 1:
						msgs = msgs[:0]
					}
					adversarial := rng.Intn(3) == 0
					if adversarial {
						msgs, reqs = adversarialBatch(prod.fn, policy, msgs, reqs)
					}
					if err := prod.MatchInto(&got, msgs, reqs); err != nil {
						t.Fatal(err)
					}
					if err := ref.MatchInto(&want, msgs, reqs); err != nil {
						t.Fatal(err)
					}
					where := func() string { return fmt.Sprintf("%s %s call %d", prod.Name(), policy, call) }
					if !slices.Equal(got.Assignment, want.Assignment) {
						t.Fatalf("%s (%d msgs, %d reqs): assignments differ", where(), len(msgs), len(reqs))
					}
					if got.Iterations != want.Iterations || got.Counters != want.Counters ||
						math.Float64bits(got.SimSeconds) != math.Float64bits(want.SimSeconds) {
						t.Fatalf("%s (%d msgs, %d reqs):\n got  iters=%d %+v sim=%v\n want iters=%d %+v sim=%v",
							where(), len(msgs), len(reqs), got.Iterations, got.Counters, got.SimSeconds,
							want.Iterations, want.Counters, want.SimSeconds)
					}
					if adversarial {
						if s := &prod.scratch; len(s.pendMsg) == 0 || len(s.pendReq) == 0 {
							t.Fatalf("%s: adversarial batch finished without the overflow list", where())
						}
						overflowed++
					}
					if err := VerifyUnordered(msgs, reqs, got.Assignment); err != nil {
						t.Fatalf("%s: %v", where(), err)
					}
				}
			}
		}
	}
	if overflowed == 0 {
		t.Fatal("no call reached the overflow list")
	}
}

// TestFastModMatchesRemainder checks the division-free remainder
// against % for every table size tableSizes yields — the secondary
// 2^k, the primary 5·2^k and the LinearProbe table 6·2^k, k = 6..20 —
// on edge dividends (0, 2^32-1, multiples of the size and their
// neighbours) and random ones.
func TestFastModMatchesRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 6; k <= 20; k++ {
		for _, d := range []int{1 << k, 5 << k, 6 << k} {
			recip := reciprocal(d)
			xs := []uint32{0, 1, math.MaxUint32, math.MaxUint32 - 1}
			for _, m := range []uint64{1, 2, 3, uint64(math.MaxUint32) / uint64(d)} {
				x := m * uint64(d)
				xs = append(xs, uint32(x-1), uint32(x), uint32(x+1))
			}
			for range 2000 {
				xs = append(xs, rng.Uint32())
			}
			for _, x := range xs {
				if got, want := fastMod(x, recip, d), int(x%uint32(d)); got != want {
					t.Fatalf("fastMod(%d) mod %d = %d, want %d", x, d, got, want)
				}
			}
		}
	}
	for _, d := range []int{0, -1, 1 << 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("reciprocal(%d) did not panic", d)
				}
			}()
			reciprocal(d)
		}()
	}
}

// compactPending keeps the pending entries whose still flag is set,
// compacting in place. It returns the number of entries retired.
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
