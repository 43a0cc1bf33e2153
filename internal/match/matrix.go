package match

import (
	"fmt"
	"math/bits"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/queue"
	"simtmp/internal/simt"
	"simtmp/internal/telemetry"
	"simtmp/internal/timing"
)

// DefaultWindow is the number of receive requests scanned per pass.
// The vote matrix (32 warps × window votes, one 64-bit shared word per
// vote) plus the request prefetch buffer must fit the 48 KiB per-CTA
// shared memory budget: 128 columns → 32 KiB matrix + 1 KiB buffer,
// leaving the occupancy at the 2 resident CTAs the paper reports.
const DefaultWindow = 128

// fusedLimit is the message-block size below which the single-warp
// fused path runs instead of the matrix ("queues with less than 64
// elements are scanned by a single warp and no matrix is generated").
const fusedLimit = 64

// MatrixConfig configures the MPI-compliant GPU matcher.
type MatrixConfig struct {
	// Arch selects the simulated GPU (default Pascal GTX1080).
	Arch *arch.Arch
	// Window is the number of requests scanned per pass (default
	// DefaultWindow).
	Window int
	// MaxCTAs bounds the CTAs used per round; message blocks beyond
	// MaxCTAs*1024 are processed in additional rounds (default 1,
	// the single-CTA setup of Figure 4).
	MaxCTAs int
	// Compact runs the queue-compaction kernel after matching,
	// the ~10% overhead the paper measures in §VI-B.
	Compact bool
	// SMs is the number of streaming multiprocessors dedicated to the
	// communication kernel (default 1, the paper's setup: "one
	// communication kernel running on a single GPU SM"). More SMs run
	// CTA waves in parallel — the linear scaling §VI-A predicts — at
	// the cost of resources taken from the application.
	SMs int
	// Recorder receives per-pass telemetry (nil = disabled, the
	// default; emission is nil-safe and allocation-free).
	Recorder *telemetry.Recorder
	// Track is the recorder timeline events land on (the owning GPU).
	Track int
}

func (c *MatrixConfig) withDefaults() MatrixConfig {
	out := *c
	if out.Arch == nil {
		out.Arch = arch.PascalGTX1080()
	}
	if out.Window <= 0 {
		out.Window = DefaultWindow
	}
	if out.MaxCTAs <= 0 {
		out.MaxCTAs = 1
	}
	if out.SMs <= 0 {
		out.SMs = 1
	}
	return out
}

// MatrixMatcher implements the paper's fully MPI-compliant matching
// algorithm (§V): a multi-warp scan builds a vote matrix (Algorithm 1),
// then a single warp reduces each column, resolving the ordering
// dependencies with ballots, find-first-set and a per-row message mask
// (Algorithm 2). Wildcards and ordering are fully honored.
type MatrixMatcher struct {
	cfg   MatrixConfig
	model timing.Model
	// noFused disables the single-warp fused path; the partitioned
	// matcher sets it because each partition runs the scan/reduce on
	// its own warp share regardless of block size.
	noFused bool

	// Reusable scratch, grown monotonically so the steady-state Match
	// path allocates nothing. A matcher is consequently NOT safe for
	// concurrent Match calls; concurrent callers each need their own
	// instance.
	scratch matrixScratch
}

// matrixScratch holds the per-call buffers of the matrix kernel.
type matrixScratch struct {
	packedReqs []uint64
	packedMsgs []uint64
	msgRegs    [][simt.LaneCount]uint64
	masks      []uint32
	waveCycles []float64
	ctas       simt.CTACache

	// compactKeep holds the compaction kernel's keep masks, one per 32
	// messages of the residue.
	compactKeep []uint32
}

// NewMatrixMatcher returns a matcher with the given configuration.
func NewMatrixMatcher(cfg MatrixConfig) *MatrixMatcher {
	c := cfg.withDefaults()
	return &MatrixMatcher{cfg: c, model: timing.NewModel(c.Arch)}
}

// grow returns buf resized to n, reusing its backing array when large
// enough and otherwise at least doubling it, so a buffer fed batches
// of varying size reallocates a logarithmic number of times.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// ensureAssignment returns a length-n assignment initialized to
// NoMatch, reusing a's backing array when large enough.
func ensureAssignment(a Assignment, n int) Assignment {
	a = grow(a, n)
	for i := range a {
		a[i] = NoMatch
	}
	return a
}

// Name implements Matcher.
func (m *MatrixMatcher) Name() string {
	return fmt.Sprintf("gpu-matrix(%s)", m.cfg.Arch.Generation)
}

// Contract implements Contractor: the matrix algorithm is the paper's
// fully MPI-compliant engine.
func (m *MatrixMatcher) Contract() Contract { return fullMPIContract() }

// footprint is the matrix kernel's per-CTA resource usage: 1024
// threads, 32 registers/thread, and the vote matrix + request buffer in
// shared memory.
func (m *MatrixMatcher) footprint() arch.KernelFootprint {
	return arch.KernelFootprint{
		ThreadsPerCTA:   1024,
		RegsPerThread:   32,
		SharedMemPerCTA: (simt.MaxWarpsPerCTA*(m.cfg.Window+1) + m.cfg.Window) * 8,
	}
}

// Match implements Matcher with full MPI semantics.
func (m *MatrixMatcher) Match(msgs []envelope.Envelope, reqs []envelope.Request) (*Result, error) {
	res := &Result{}
	if err := m.MatchInto(res, msgs, reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// MatchInto implements ReusableMatcher: it runs Match but recycles the
// caller-owned Result (and the matcher's internal scratch), so the
// steady-state hot path performs zero heap allocations.
func (m *MatrixMatcher) MatchInto(res *Result, msgs []envelope.Envelope, reqs []envelope.Request) error {
	packedMsgs, packedReqs, err := packInputs(msgs, reqs, m.scratch.packedMsgs, m.scratch.packedReqs)
	m.scratch.packedMsgs, m.scratch.packedReqs = packedMsgs, packedReqs
	if err != nil {
		return err
	}
	res.reset(len(reqs))
	if len(msgs) == 0 || len(reqs) == 0 {
		return nil
	}

	const blockSize = simt.MaxWarpsPerCTA * simt.LaneCount // 1024 messages per CTA
	chunk := m.cfg.MaxCTAs * blockSize

	occ := m.cfg.Arch.Occupancy(m.footprint())
	if occ < 1 {
		occ = 1
	}

	rec := m.cfg.Recorder
	base := rec.Clock()
	emitQueueDepths(rec, m.cfg.Track, len(msgs), len(reqs))

	var totalCycles float64
	var totalCtrs simt.Counters

	for round := 0; round*chunk < len(msgs); round++ {
		roundStart := round * chunk
		roundEnd := roundStart + chunk
		if roundEnd > len(msgs) {
			roundEnd = len(msgs)
		}
		// CTAs of this round, processed in message order (earlier CTA =
		// earlier messages = higher matching priority). CTAs beyond the
		// occupancy limit serialize into waves.
		waveCycles := m.scratch.waveCycles[:0]
		for blockStart := roundStart; blockStart < roundEnd; blockStart += blockSize {
			blockEnd := blockStart + blockSize
			if blockEnd > roundEnd {
				blockEnd = roundEnd
			}
			cycles, ctrs := m.matchBlock(packedMsgs, packedReqs, blockStart, blockEnd, res.Assignment)
			waveCycles = append(waveCycles, cycles)
			totalCtrs.Add(&ctrs)
		}
		m.scratch.waveCycles = waveCycles
		roundCycles := m.combineWaves(waveCycles, occ)
		rec.Span(m.cfg.Track, evMatchPass,
			base+m.model.Seconds(totalCycles), m.model.Seconds(roundCycles),
			argRound, int64(round), argMsgs, int64(roundEnd-roundStart))
		totalCycles += roundCycles
		res.Iterations++
	}
	totalCycles += m.model.P.LaunchOverhead

	if m.cfg.Compact {
		totalCycles += m.compactionCycles(len(msgs), res.Assignment)
	}

	res.SimSeconds = m.model.Seconds(totalCycles)
	res.Counters = totalCtrs
	emitKernelStats(rec, m.cfg.Track, base, base+res.SimSeconds, occ, totalCtrs)
	return nil
}

// combineWaves serializes CTA cycle counts into occupancy-sized waves
// on each of the configured SMs; SMs run their waves in parallel (the
// linear multi-SM scaling of §VI-A), CTAs within a wave run
// concurrently: the longest dominates and the others add a small
// interference term (they compete for issue slots and the memory
// pipeline but their dependent chains run on different warps).
func (m *MatrixMatcher) combineWaves(ctaCycles []float64, occ int) float64 {
	sms := max(1, min(m.cfg.SMs, m.cfg.Arch.SMCount))
	// CTAs are dealt round-robin: SM s runs CTAs s, s+sms, s+2·sms, ...
	worst := 0.0
	for s := 0; s < sms; s++ {
		if t := serializeWaves(ctaCycles, s, sms, occ); t > worst {
			worst = t
		}
	}
	return worst
}

// serializeWaves runs one SM's CTA list — ctaCycles[first],
// ctaCycles[first+stride], ... — in occupancy-sized waves. Walking the
// stride in place keeps the multi-SM split allocation-free.
func serializeWaves(ctaCycles []float64, first, stride, occ int) float64 {
	const interference = 0.25
	total := 0.0
	for start := first; start < len(ctaCycles); start += occ * stride {
		max, sum := 0.0, 0.0
		for i, k := start, 0; i < len(ctaCycles) && k < occ; i, k = i+stride, k+1 {
			c := ctaCycles[i]
			sum += c
			if c > max {
				max = c
			}
		}
		total += max + interference*(sum-max)
	}
	return total
}

// matchBlock runs one CTA over messages [blockStart, blockEnd),
// filling assignment entries for still-unmatched requests. It returns
// the CTA's simulated cycles and counters.
func (m *MatrixMatcher) matchBlock(msgs, reqs []uint64, blockStart, blockEnd int, assign Assignment) (float64, simt.Counters) {
	blockLen := blockEnd - blockStart
	if blockLen <= fusedLimit && !m.noFused {
		return m.fusedBlock(msgs, reqs, blockStart, blockEnd, assign)
	}

	msgWarps := (blockLen + simt.LaneCount - 1) / simt.LaneCount
	window := m.cfg.Window
	// The vote matrix is padded to an odd row stride (the classic +1
	// padding) so the reduce's column reads spread across the 32
	// shared-memory banks instead of serializing 32-way.
	stride := window + 1
	sharedWords := simt.MaxWarpsPerCTA*stride + window
	cta := m.scratch.ctas.Get(0, msgWarps*simt.LaneCount, sharedWords)
	warps := cta.Warps()

	// Each warp loads its 32 message headers once (coalesced). Lanes
	// past blockEnd load nothing, and the scan evaluates only the lanes
	// holding a message, so the registers need no clearing.
	m.scratch.msgRegs = grow(m.scratch.msgRegs, msgWarps)
	msgRegs := m.scratch.msgRegs
	msgMem, reqMem := globalOf(msgs), globalOf(reqs)
	for wi, w := range warps {
		start := blockStart + wi*simt.LaneCount
		valid := w.BallotMask(simt.FirstLanes(blockEnd - start))
		w.WithMask(valid, func() { w.LoadGlobalRange(msgMem, start, &msgRegs[wi]) })
	}
	// The message loads bill to the scan phase.
	var scanCtrs, reduceCtrs simt.Counters
	cta.DrainCounters(&scanCtrs)

	// Per-row (warp) message masks persist across windows: bit i of
	// masks[w] is set while message w*32+i is unclaimed.
	m.scratch.masks = grow(m.scratch.masks, msgWarps)
	masks := m.scratch.masks
	for i := range masks {
		masks[i] = simt.FullMask
	}

	matchedInBlock := 0

	windows := 0
	for wStart := 0; wStart < len(reqs) && matchedInBlock < blockLen; wStart += window {
		wEnd := wStart + window
		if wEnd > len(reqs) {
			wEnd = len(reqs)
		}
		windows++

		// Prefetch the request window into shared memory (coalesced
		// loads by the first warps).
		for off := 0; off < wEnd-wStart; off += simt.LaneCount {
			w := warps[(off/simt.LaneCount)%len(warps)]
			inWin := w.BallotMask(simt.FirstLanes(wEnd - wStart - off))
			w.WithMask(inWin, func() {
				var tmp [simt.LaneCount]uint64
				w.LoadGlobalRange(reqMem, wStart+off, &tmp)
				w.StoreSharedRange(cta.Shared, simt.MaxWarpsPerCTA*stride+off, &tmp)
			})
		}
		cta.SyncThreads()

		// Scan (Algorithm 1): every warp votes its messages against
		// every request of the window; votes land in the shared-memory
		// matrix, one row per warp. Lanes past the block hold no message
		// and cannot vote: the ballot is billed the same, but their
		// predicate is not evaluated.
		for wi, w := range warps {
			regs := &msgRegs[wi]
			held := w.Active() & simt.FirstLanes(blockLen-wi*simt.LaneCount)
			for i := wStart; i < wEnd; i++ {
				col := i - wStart
				req := w.LoadSharedUniform(cta.Shared, simt.MaxWarpsPerCTA*stride+col)
				w.Issue(2) // header compare ALU work
				vote := w.BallotMask(matchVotes(held, regs, req))
				w.StoreSharedUniform(cta.Shared, wi*stride+col, uint64(vote))
			}
		}
		cta.SyncThreads()
		cta.DrainCounters(&scanCtrs)

		// Reduce (Algorithm 2): warp 0, lane l owning matrix row l,
		// resolves each column to the earliest unclaimed message.
		w0 := warps[0]
		rowMask := simt.FirstLanes(msgWarps)
		// Lane l of the column read holds row l's vote; only the block's
		// rows are loaded and read.
		var colVotes [simt.LaneCount]uint64
		for i := wStart; i < wEnd; i++ {
			col := i - wStart
			// Skip columns already claimed by an earlier CTA or round.
			w0.Issue(1)
			if assign[i] != NoMatch {
				continue
			}
			w0.WithMask(rowMask, func() { w0.LoadSharedStrided(cta.Shared, col, stride, &colVotes) })
			w0.Issue(1) // vote & mask
			var votes uint32
			for lane, v := range colVotes[:msgWarps] {
				if uint32(v)&masks[lane] != 0 {
					votes |= simt.LaneMask(lane)
				}
			}
			bidders := w0.BallotMask(votes)
			if bidders == 0 {
				continue
			}
			// Lowest warp row wins (earlier messages), then the lowest
			// set bit within its masked vote.
			winner := simt.Ffs(bidders) - 1
			w0.WithMask(simt.LaneMask(winner), func() {
				w0.Issue(3) // ffs, mask clear, index math
				bit := simt.Ffs(uint32(colVotes[winner])&masks[winner]) - 1
				masks[winner] &^= 1 << uint(bit)
				assign[i] = blockStart + winner*simt.LaneCount + bit
				matchedInBlock++
				w0.StoreSharedUniform(cta.Shared, winner*stride+col, uint64(assign[i]))
			})
			// Early exit: once every message of the block is claimed
			// the remaining columns cannot match here (§V-B: this is
			// why a reversed receive queue degrades performance while
			// an ordered one does not).
			if matchedInBlock == blockLen {
				w0.Issue(1)
				break
			}
		}
		cta.SyncThreads()
		cta.DrainCounters(&reduceCtrs)
	}

	cycles := m.blockCycles(&scanCtrs, &reduceCtrs, msgWarps, windows)
	scanCtrs.Add(&reduceCtrs)
	return cycles, scanCtrs
}

// matchVotes computes the scan and fused ballots' votes inline, for
// BallotMask: bit l is set for each lane l of lanes whose register
// holds a message matching req. The zero sentinel (no message) never
// matches: it lacks the valid bit.
func matchVotes(lanes uint32, regs *[simt.LaneCount]uint64, req uint64) uint32 {
	var votes uint32
	mask := envelope.MatchMask(req)
	for ; lanes != 0; lanes &= lanes - 1 {
		lane := bits.TrailingZeros32(lanes)
		if envelope.MatchesMasked(req, regs[lane], mask) {
			votes |= simt.LaneMask(lane)
		}
	}
	return votes
}

// blockCycles combines the scan and reduce phases of one CTA: when the
// message block leaves warps free (fewer than 32 scan warps), the two
// phases pipeline and the longer one hides the shorter (§V-A). At the
// full 1024 messages all warps scan and the reduce serializes — the
// knee visible in Figure 4.
func (m *MatrixMatcher) blockCycles(scan, reduce *simt.Counters, msgWarps, windows int) float64 {
	scanCycles := m.model.PhaseCycles(&timing.Phase{Kind: timing.Throughput, Ctrs: *scan, ResidentWarps: msgWarps})
	reduceCycles := m.model.PhaseCycles(&timing.Phase{Kind: timing.Dependent, Ctrs: *reduce})
	if msgWarps < simt.MaxWarpsPerCTA {
		// Pipelined: one window of the shorter phase fills the pipe.
		fill := 0.0
		if windows > 0 {
			fill = minf(scanCycles, reduceCycles) / float64(windows)
		}
		return timing.Overlap(scanCycles, reduceCycles) + fill
	}
	return scanCycles + reduceCycles
}

// fusedBlock is the small-queue path: a single warp both votes and
// resolves each request without materializing a matrix. Each lane holds
// up to two messages (blocks of at most 64).
func (m *MatrixMatcher) fusedBlock(msgs, reqs []uint64, blockStart, blockEnd int, assign Assignment) (float64, simt.Counters) {
	blockLen := blockEnd - blockStart
	cta := m.scratch.ctas.Get(0, simt.LaneCount, simt.LaneCount)
	w := cta.Warp(0)

	// Unclaimed messages per register file; lanes past the block hold
	// none, so their predicate is never evaluated.
	maskLo, maskHi := simt.FirstLanes(blockLen), simt.FirstLanes(blockLen-simt.LaneCount)

	// The warp loads without predication: a lane past the block clamps
	// its address to blockStart and discards the word. For lo, lane 0
	// reads blockStart too, so the load bills just the block's range.
	// For hi, the clamped lanes of a 33–63 message block add
	// blockStart's segment, which the hi range never touches.
	msgMem, reqMem := globalOf(msgs), globalOf(reqs)
	var lo, hi [simt.LaneCount]uint64
	w.SetActive(maskLo)
	w.LoadGlobalRange(msgMem, blockStart, &lo)
	if blockLen > simt.LaneCount {
		w.SetActive(maskHi)
		w.LoadGlobalRange(msgMem, blockStart+simt.LaneCount, &hi)
		if blockLen < 2*simt.LaneCount {
			w.Counters().GMemTrans++
		}
	}
	w.SetActive(simt.FullMask)
	matched := 0

	for i := range reqs {
		if matched == blockLen {
			break
		}
		// Request fetch (staged through shared memory by the same warp)
		// plus loop bookkeeping — the single warp pays the full
		// dependency latency of each step, which is why the fused path
		// is not dramatically faster than the matrix (Figure 4 is
		// roughly flat across queue lengths).
		if i%simt.LaneCount == 0 {
			// Clamped lanes read lane 0's word: no extra segment. The
			// kernel's staging stores zeros; the values are not used.
			var staged [simt.LaneCount]uint64
			w.SetActive(simt.FirstLanes(len(reqs) - i))
			w.LoadGlobalRange(reqMem, i, &staged)
			w.SetActive(simt.FullMask)
			w.StoreSharedRange(cta.Shared, 0, &zeroLanes)
		}
		w.LoadSharedUniform(cta.Shared, i%simt.LaneCount)
		w.Issue(2)
		if assign[i] != NoMatch {
			continue
		}
		req := reqs[i]
		w.Issue(2) // compares
		voteLo := w.BallotMask(matchVotes(w.Active()&maskLo, &lo, req))
		if voteLo != 0 {
			bit := simt.Ffs(voteLo) - 1
			w.WithMask(simt.LaneMask(bit), func() {
				w.Issue(2)
				maskLo &^= 1 << uint(bit)
				assign[i] = blockStart + bit
				matched++
			})
			continue
		}
		if blockLen <= simt.LaneCount {
			continue
		}
		voteHi := w.BallotMask(matchVotes(w.Active()&maskHi, &hi, req))
		if voteHi != 0 {
			bit := simt.Ffs(voteHi) - 1
			w.WithMask(simt.LaneMask(bit), func() {
				w.Issue(2)
				maskHi &^= 1 << uint(bit)
				assign[i] = blockStart + simt.LaneCount + bit
				matched++
			})
		}
	}
	ctrs := cta.Counters()
	cycles := m.model.PhaseCycles(&timing.Phase{Kind: timing.Dependent, Ctrs: ctrs})
	return cycles, ctrs
}

// compactionCycles returns the cycle cost of the stream-compaction
// kernel over an n-message queue holding the unmatched residue (the
// step the paper measures at roughly 10% of the matching rate). The
// kernel's counters come in closed form from one keep mask per 32
// messages, so no queue or compaction CTA is simulated.
func (m *MatrixMatcher) compactionCycles(n int, assign Assignment) float64 {
	sc := &m.scratch
	sc.compactKeep = grow(sc.compactKeep, (n+simt.LaneCount-1)/simt.LaneCount)
	keep := sc.compactKeep
	for i := range keep {
		keep[i] = simt.FirstLanes(n - i*simt.LaneCount)
	}
	for _, mi := range assign {
		if mi != NoMatch {
			keep[mi/simt.LaneCount] &^= simt.LaneMask(mi % simt.LaneCount)
		}
	}
	ctrs := queue.CompactCounters(n, simt.MaxWarpsPerCTA, keep)
	// Both the message and the request queue are compacted; beyond the
	// header prefix-scan, full descriptors move and head/tail pointers
	// are maintained (CompactPerEntry), plus a separate kernel launch.
	entries := float64(n + len(assign))
	return m.model.PhaseCycles(&timing.Phase{
		Kind: timing.Throughput, Ctrs: ctrs, ResidentWarps: simt.MaxWarpsPerCTA,
	})*2 + entries*m.model.P.CompactPerEntry + m.model.P.LaunchOverhead
}

// zeroLanes is the fused path's staging-store source.
var zeroLanes [simt.LaneCount]uint64

// globalOf wraps a host slice as device global memory for kernel loads.
// The copy-free view keeps simulation fast while still billing real
// addresses for coalescing.
func globalOf(words []uint64) *simt.Memory { return simt.Wrap(words) }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
