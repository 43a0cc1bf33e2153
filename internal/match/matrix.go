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
	// Workers bounds the host goroutines simulating the scan phase's
	// warps in parallel (0 = GOMAXPROCS, 1 = sequential). Host
	// parallelism changes wall-clock only: warps write disjoint vote
	// rows and bill private counters, so results, counters and
	// simulated cycles are bit-identical to the sequential path.
	Workers int
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
	// concurrent Match calls; concurrent workers each get their own
	// instance (see PartitionedMatcher).
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

	// compactMem and compactQ are the message queue the compaction
	// kernel runs over, re-initialized per call (the memory only grows).
	compactMem *simt.Memory
	compactQ   queue.Queue

	// scan carries the per-window state of the parallel scan so the
	// worker body can be one persistent method value: a fresh closure
	// per window would escape to the heap (ParallelFor hands it to
	// goroutines) and break the zero-allocation steady state.
	scan struct {
		warps        []*simt.Warp
		cta          *simt.CTA
		wStart, wEnd int
		stride       int
	}
	scanFn func(int)
}

// NewMatrixMatcher returns a matcher with the given configuration.
func NewMatrixMatcher(cfg MatrixConfig) *MatrixMatcher {
	c := cfg.withDefaults()
	return &MatrixMatcher{cfg: c, model: timing.NewModel(c.Arch)}
}

// growU64 returns buf resized to n, reusing its backing array when
// large enough.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// ensureAssignment returns a length-n assignment initialized to
// NoMatch, reusing a's backing array when large enough.
func ensureAssignment(a Assignment, n int) Assignment {
	if cap(a) < n {
		a = make(Assignment, n)
	}
	a = a[:n]
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
	if err := validateInputs(msgs, reqs); err != nil {
		return err
	}
	res.reset(len(reqs))
	if len(msgs) == 0 || len(reqs) == 0 {
		return nil
	}

	packedReqs := growU64(m.scratch.packedReqs, len(reqs))
	for i, r := range reqs {
		packedReqs[i] = r.Pack()
	}
	m.scratch.packedReqs = packedReqs
	packedMsgs := growU64(m.scratch.packedMsgs, len(msgs))
	for i, e := range msgs {
		packedMsgs[i] = e.Pack()
	}
	m.scratch.packedMsgs = packedMsgs

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
			totalCtrs.Add(ctrs)
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
		totalCycles += m.compactionCycles(packedMsgs, res.Assignment)
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

	// Each warp loads its 32 message headers once (coalesced). The
	// scratch registers must be zeroed: lanes past blockEnd are skipped
	// by the masked load but still read by the scan's full-warp ballots,
	// which rely on the zero sentinel to mean "no message".
	if cap(m.scratch.msgRegs) < msgWarps {
		m.scratch.msgRegs = make([][simt.LaneCount]uint64, msgWarps)
	}
	msgRegs := m.scratch.msgRegs[:msgWarps]
	for i := range msgRegs {
		msgRegs[i] = [simt.LaneCount]uint64{}
	}
	for wi, w := range warps {
		start := blockStart + wi*simt.LaneCount
		valid := w.Ballot(func(lane int) bool { return start+lane < blockEnd })
		w.WithMask(valid, func() {
			w.LoadGlobal(globalOf(msgs), func(lane int) int { return start + lane },
				func(lane int, v uint64) { msgRegs[wi][lane] = v })
		})
	}
	loadCtrs := cta.Counters()
	cta.ResetCounters()

	// Per-row (warp) message masks persist across windows: bit i of
	// masks[w] is set while message w*32+i is unclaimed.
	if cap(m.scratch.masks) < msgWarps {
		m.scratch.masks = make([]uint32, msgWarps)
	}
	masks := m.scratch.masks[:msgWarps]
	for i := range masks {
		masks[i] = simt.FullMask
	}

	var scanCtrs, reduceCtrs simt.Counters
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
			inWin := w.Ballot(func(lane int) bool { return wStart+off+lane < wEnd })
			w.WithMask(inWin, func() {
				var tmp [simt.LaneCount]uint64
				w.LoadGlobal(globalOf(reqs), func(lane int) int { return wStart + off + lane },
					func(lane int, v uint64) { tmp[lane] = v })
				w.StoreShared(cta.Shared, func(lane int) int {
					return simt.MaxWarpsPerCTA*stride + off + lane
				}, func(lane int) uint64 { return tmp[lane] })
			})
		}
		cta.SyncThreads()

		// Scan (Algorithm 1): every warp votes for every request of the
		// window; votes land in the shared-memory matrix. The warps are
		// independent here — each reads the (now frozen) request buffer
		// and its own message registers, writes its own matrix row, and
		// bills its own counter sink — so the host may simulate them
		// concurrently with bit-identical results.
		sc := &m.scratch
		sc.scan.warps, sc.scan.cta, sc.scan.stride = warps, cta, stride
		sc.scan.wStart, sc.scan.wEnd = wStart, wEnd
		if sc.scanFn == nil {
			sc.scanFn = m.scanWarp
		}
		simt.ParallelFor(len(warps), m.cfg.Workers, sc.scanFn)
		sc.scan.warps, sc.scan.cta = nil, nil
		cta.SyncThreads()
		scanCtrs.Add(cta.Counters())
		cta.ResetCounters()

		// Reduce (Algorithm 2): warp 0, lane l owning matrix row l,
		// resolves each column to the earliest unclaimed message.
		w0 := warps[0]
		rowMask := simt.FullMask >> uint(simt.LaneCount-min(msgWarps, simt.LaneCount))
		for i := wStart; i < wEnd; i++ {
			col := i - wStart
			// Skip columns already claimed by an earlier CTA or round.
			w0.Issue(1)
			if assign[i] != NoMatch {
				continue
			}
			var colVotes [simt.LaneCount]uint32
			w0.WithMask(rowMask, func() {
				w0.LoadShared(cta.Shared,
					func(lane int) int { return lane*stride + col },
					func(lane int, v uint64) { colVotes[lane] = uint32(v) })
			})
			w0.Issue(1) // vote & mask
			bidders := w0.Ballot(func(lane int) bool {
				return lane < msgWarps && colVotes[lane]&masks[lane] != 0
			})
			if bidders == 0 {
				continue
			}
			// Lowest warp row wins (earlier messages), then the lowest
			// set bit within its masked vote.
			winner := simt.Ffs(bidders) - 1
			w0.WithMask(simt.LaneMask(winner), func() {
				w0.Issue(3) // ffs, mask clear, index math
				bit := simt.Ffs(colVotes[winner]&masks[winner]) - 1
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
		reduceCtrs.Add(cta.Counters())
		cta.ResetCounters()
	}

	scanCtrs.Add(loadCtrs)
	return m.blockCycles(scanCtrs, reduceCtrs, msgWarps, windows), sum3(scanCtrs, reduceCtrs, cta.Counters())
}

// scanWarp is the parallel scan body for one warp: it votes the warp's
// messages against every request of the current window (state in
// m.scratch.scan). It is installed once as a persistent method value;
// see matrixScratch.scan.
func (m *MatrixMatcher) scanWarp(wi int) {
	sc := &m.scratch.scan
	w := sc.warps[wi]
	cta, stride := sc.cta, sc.stride
	regs := &m.scratch.msgRegs[wi]
	for i := sc.wStart; i < sc.wEnd; i++ {
		col := i - sc.wStart
		req := w.LoadSharedUniform(cta.Shared, simt.MaxWarpsPerCTA*stride+col)
		w.Issue(2) // header compare ALU work
		vote := w.BallotMask(matchVotes(w.Active(), regs, req))
		w.StoreSharedUniform(cta.Shared, wi*stride+col, uint64(vote))
	}
}

// matchVotes computes the scan and fused ballots' votes inline, for
// BallotMask: bit l is set for each lane l of lanes whose register
// holds a message (the zero sentinel means none) matching req.
func matchVotes(lanes uint32, regs *[simt.LaneCount]uint64, req uint64) uint32 {
	var votes uint32
	for ; lanes != 0; lanes &= lanes - 1 {
		lane := bits.TrailingZeros32(lanes)
		if regs[lane] != 0 && envelope.MatchesPacked(req, regs[lane]) {
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
func (m *MatrixMatcher) blockCycles(scan, reduce simt.Counters, msgWarps, windows int) float64 {
	scanCycles := m.model.PhaseCycles(timing.Phase{Kind: timing.Throughput, Ctrs: scan, ResidentWarps: msgWarps})
	reduceCycles := m.model.PhaseCycles(timing.Phase{Kind: timing.Dependent, Ctrs: reduce})
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

	var lo, hi [simt.LaneCount]uint64
	w.LoadGlobal(globalOf(msgs), func(lane int) int {
		if blockStart+lane < blockEnd {
			return blockStart + lane
		}
		return blockStart
	}, func(lane int, v uint64) {
		if blockStart+lane < blockEnd {
			lo[lane] = v
		}
	})
	if blockLen > simt.LaneCount {
		w.LoadGlobal(globalOf(msgs), func(lane int) int {
			if blockStart+simt.LaneCount+lane < blockEnd {
				return blockStart + simt.LaneCount + lane
			}
			return blockStart
		}, func(lane int, v uint64) {
			if blockStart+simt.LaneCount+lane < blockEnd {
				hi[lane] = v
			}
		})
	}
	maskLo, maskHi := simt.FullMask, simt.FullMask
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
			w.LoadGlobal(globalOf(reqs), func(lane int) int {
				if i+lane < len(reqs) {
					return i + lane
				}
				return i
			}, func(lane int, v uint64) {})
			w.StoreShared(cta.Shared, func(lane int) int { return lane }, func(lane int) uint64 { return 0 })
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
	cycles := m.model.PhaseCycles(timing.Phase{Kind: timing.Dependent, Ctrs: ctrs})
	return cycles, ctrs
}

// compactionCycles runs the stream-compaction kernel over a message
// queue holding the unmatched residue and returns its cycle cost (the
// step the paper measures at roughly 10% of the matching rate).
func (m *MatrixMatcher) compactionCycles(msgs []uint64, assign Assignment) float64 {
	sc := &m.scratch
	if sc.compactMem == nil || sc.compactMem.Len() < len(msgs) {
		sc.compactMem = simt.NewMemory(len(msgs))
	}
	q := &sc.compactQ
	q.Init(sc.compactMem, 0, len(msgs))
	for _, w := range msgs {
		q.Push(w) //nolint:errcheck // capacity is exact
	}
	for _, mi := range assign {
		if mi != NoMatch {
			q.Clear(mi)
		}
	}
	cta := sc.ctas.Get(0, 1024, simt.MaxWarpsPerCTA)
	q.Compact(cta)
	// Both the message and the request queue are compacted; beyond the
	// header prefix-scan, full descriptors move and head/tail pointers
	// are maintained (CompactPerEntry), plus a separate kernel launch.
	entries := float64(len(msgs) + len(assign))
	return m.model.PhaseCycles(timing.Phase{
		Kind: timing.Throughput, Ctrs: cta.Counters(), ResidentWarps: simt.MaxWarpsPerCTA,
	})*2 + entries*m.model.P.CompactPerEntry + m.model.P.LaunchOverhead
}

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

func sum3(a, b, c simt.Counters) simt.Counters {
	var t simt.Counters
	t.Add(a)
	t.Add(b)
	t.Add(c)
	return t
}
