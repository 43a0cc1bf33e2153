package match

import (
	"fmt"
	"math"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/simt"
	"simtmp/internal/telemetry"
	"simtmp/internal/timing"
)

// PartitionedConfig configures the "no source wildcard" relaxation
// (§VI-A): the rank space statically partitioned into Queues queues,
// each matched by its own share of the CTA's warps. Each queue scans
// with DefaultWindow.
type PartitionedConfig struct {
	// Arch selects the simulated GPU (default Pascal GTX1080).
	Arch *arch.Arch
	// Queues is the number of rank partitions (1..32, default 4).
	Queues int
	// MaxCTAs bounds concurrent CTAs (default 1); longer queues need
	// more CTAs, which serialize beyond the occupancy limit exactly as
	// Figure 5 annotates.
	MaxCTAs int
	// Compact enables the post-match compaction kernel.
	Compact bool
	// SMs dedicates multiple SMs to the communication kernel
	// (default 1; see MatrixConfig.SMs).
	SMs int
	// Recorder receives per-pass telemetry (nil = disabled, the
	// default).
	Recorder *telemetry.Recorder
	// Track is the recorder timeline events land on (the owning GPU).
	Track int
}

// partitionKey selects the envelope field a PartitionedMatcher splits
// its queues on.
type partitionKey uint8

const (
	// keyRank partitions by source rank: the §VI-A relaxation.
	keyRank partitionKey = iota
	// keyStream partitions by stream id: the MPIX Stream relaxation
	// (NewStreamMatcher).
	keyStream
)

// PartitionedMatcher splits both queues into independent partitions,
// each an ordered matrix sub-problem matched by its own share of the
// CTA's warps. A message and every request able to match it must land
// in the same partition, so the key is a field no admitted request
// leaves open:
//
//   - keyed on source rank (NewPartitionedMatcher), requests using
//     MPI_ANY_SOURCE are rejected (ErrSourceWildcard); tag wildcards
//     and pairwise ordering remain fully honored;
//   - keyed on stream id (NewStreamMatcher), both wildcards stay
//     admitted, because the stream is always concrete and compares
//     unconditionally, so a wildcard ranges only over its own stream.
type PartitionedMatcher struct {
	cfg PartitionedConfig
	key partitionKey
	// engine runs every partition's blocks, one after another, on its
	// one scratch; it also supplies the footprint and wave timing.
	engine *MatrixMatcher
	model  timing.Model

	// Reusable per-call scratch (grown monotonically); a matcher is
	// NOT safe for concurrent Match calls.
	parts      []partScratch
	ctaCycles  []float64
	packedMsgs []uint64
	packedReqs []uint64
}

// partScratch holds one partition's physical queues and local result.
type partScratch struct {
	msgWords []uint64
	msgIdx   []int
	reqWords []uint64
	reqIdx   []int
	assign   Assignment
}

// NewPartitionedMatcher returns a matcher with the given configuration.
func NewPartitionedMatcher(cfg PartitionedConfig) *PartitionedMatcher {
	if cfg.Arch == nil {
		cfg.Arch = arch.PascalGTX1080()
	}
	if cfg.Queues <= 0 {
		cfg.Queues = 4
	}
	if cfg.Queues > simt.MaxWarpsPerCTA {
		cfg.Queues = simt.MaxWarpsPerCTA
	}
	if cfg.MaxCTAs <= 0 {
		cfg.MaxCTAs = 1
	}
	if cfg.SMs <= 0 {
		cfg.SMs = 1
	}
	p := &PartitionedMatcher{
		cfg:    cfg,
		engine: NewMatrixMatcher(MatrixConfig{Arch: cfg.Arch, MaxCTAs: 1, SMs: cfg.SMs}),
		model:  timing.NewModel(cfg.Arch),
		parts:  make([]partScratch, cfg.Queues),
	}
	p.engine.noFused = true
	return p
}

// Name implements Matcher.
func (p *PartitionedMatcher) Name() string {
	if p.key == keyStream {
		return fmt.Sprintf("gpu-stream(%s,s=%d)", p.cfg.Arch.Generation, p.cfg.Queues)
	}
	return fmt.Sprintf("gpu-partitioned(%s,q=%d)", p.cfg.Arch.Generation, p.cfg.Queues)
}

// Contract implements Contractor. Keyed on rank, ordering and tag
// wildcards are fully honored and only MPI_ANY_SOURCE is prohibited
// (§VI-A); keyed on stream, ordering is owed per stream only and both
// wildcards stay admitted.
func (p *PartitionedMatcher) Contract() Contract {
	if p.key == keyStream {
		return Contract{Semantics: Ordered, SrcWildcard: true, TagWildcard: true, StreamQualified: true}
	}
	return Contract{Semantics: Ordered, SrcWildcard: false, TagWildcard: true}
}

// queueOf maps an envelope's partition key to its partition.
func (p *PartitionedMatcher) queueOf(src envelope.Rank, st envelope.Stream) int {
	if p.key == keyStream {
		return int(st) % p.cfg.Queues
	}
	return int(src) % p.cfg.Queues
}

// Match implements Matcher under the matcher's relaxation.
func (p *PartitionedMatcher) Match(msgs []envelope.Envelope, reqs []envelope.Request) (*Result, error) {
	res := &Result{}
	if err := p.MatchInto(res, msgs, reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// MatchInto implements ReusableMatcher (see MatrixMatcher.MatchInto).
func (p *PartitionedMatcher) MatchInto(res *Result, msgs []envelope.Envelope, reqs []envelope.Request) error {
	packedMsgs, packedReqs, err := packInputs(msgs, reqs, p.packedMsgs, p.packedReqs)
	p.packedMsgs, p.packedReqs = packedMsgs, packedReqs
	if err != nil {
		return err
	}
	if p.key == keyRank {
		for i, r := range reqs {
			if r.Src == envelope.AnySource {
				return fmt.Errorf("request %d: %w", i, ErrSourceWildcard)
			}
		}
	}
	res.reset(len(reqs))
	if len(msgs) == 0 || len(reqs) == 0 {
		return nil
	}

	// Partition by key. Per-queue arrays are contiguous: the receiving
	// runtime enqueues each arrival into its partition's physical
	// queue, so kernel loads stay coalesced.
	q := p.cfg.Queues
	for pi := range p.parts {
		pt := &p.parts[pi]
		pt.msgWords = pt.msgWords[:0]
		pt.msgIdx = pt.msgIdx[:0]
		pt.reqWords = pt.reqWords[:0]
		pt.reqIdx = pt.reqIdx[:0]
	}
	for i, m := range msgs {
		pt := &p.parts[p.queueOf(m.Src, m.Stream)]
		pt.msgWords = append(pt.msgWords, packedMsgs[i])
		pt.msgIdx = append(pt.msgIdx, i)
	}
	for i, r := range reqs {
		pt := &p.parts[p.queueOf(r.Src, r.Stream)]
		pt.reqWords = append(pt.reqWords, packedReqs[i])
		pt.reqIdx = append(pt.reqIdx, i)
	}
	for pi := range p.parts {
		pt := &p.parts[pi]
		pt.assign = ensureAssignment(pt.assign, len(pt.reqWords))
	}

	warpsPerQueue := simt.MaxWarpsPerCTA / q
	if warpsPerQueue < 1 {
		warpsPerQueue = 1
	}
	subBlock := warpsPerQueue * simt.LaneCount

	occ := p.cfg.Arch.Occupancy(p.engine.footprint())
	if occ < 1 {
		occ = 1
	}

	maxCTAs := p.cfg.MaxCTAs
	p.ctaCycles = grow(p.ctaCycles, maxCTAs)
	ctaCycles := p.ctaCycles

	rec := p.cfg.Recorder
	base := rec.Clock()
	emitQueueDepths(rec, p.cfg.Track, len(msgs), len(reqs))

	var totalCycles float64
	var totalCtrs simt.Counters
	for round := 0; ; round++ {
		// CTA c of the round hosts every partition's c-th sub-block on
		// disjoint warp groups, so the longest partition dominates and
		// the rest add interference. Each partition walks its own
		// sub-blocks in message order (earlier block = higher priority).
		progress := false
		for c := 0; c < maxCTAs; c++ {
			blockStart := (round*maxCTAs + c) * subBlock
			maxQ, sumQ := 0.0, 0.0
			for pi := range p.parts {
				pt := &p.parts[pi]
				if blockStart >= len(pt.msgWords) {
					continue
				}
				blockEnd := min(blockStart+subBlock, len(pt.msgWords))
				cycles, ctrs := p.engine.matchBlock(pt.msgWords, pt.reqWords, blockStart, blockEnd, pt.assign)
				totalCtrs.Add(&ctrs)
				progress = true
				sumQ += cycles
				maxQ = max(maxQ, cycles)
			}
			const interference = 0.02
			ctaCycles[c] = maxQ + interference*(sumQ-maxQ)
		}
		if !progress {
			break
		}
		roundTotal := p.engine.combineWaves(ctaCycles, occ)
		// Spans are stamped pre-contention: the cross-queue multiplier
		// applies to the whole kernel at the end, so per-round spans show
		// relative pass structure, not the final wall position.
		rec.Span(p.cfg.Track, evMatchPass,
			base+p.model.Seconds(totalCycles), p.model.Seconds(roundTotal),
			argRound, int64(round), 0, 0)
		totalCycles += roundTotal
		res.Iterations++
	}
	totalCycles *= p.contention()
	totalCycles += p.model.P.LaunchOverhead

	// Scatter per-queue assignments back to global indices.
	for pi := range p.parts {
		pt := &p.parts[pi]
		for li, lm := range pt.assign {
			if lm != NoMatch {
				res.Assignment[pt.reqIdx[li]] = pt.msgIdx[lm]
			}
		}
	}

	if p.cfg.Compact {
		totalCycles += p.engine.compactionCycles(len(msgs), res.Assignment)
	}

	res.SimSeconds = p.model.Seconds(totalCycles)
	res.Counters = totalCtrs
	emitKernelStats(rec, p.cfg.Track, base, base+res.SimSeconds, occ, totalCtrs)
	return nil
}

// contention returns the calibrated cross-queue synchronization
// multiplier. Keyed on rank, the pipelining barriers apply to all warps
// of the CTA, not only to the warps of one queue, while the queues'
// reduce phases depend on each other's ordering votes (§VI-A), so
// splitting the warp budget degrades efficiency superlinearly in the
// queue count: ~1 for few queues (the paper's "almost linear" regime up
// to 4 queues), growing so that 16-32 queues land just below the 10×
// aggregate speedup of Table II. Keyed on stream, every ordering
// dependency is private to a stream, so a stream's warps never wait on
// another stream's reduce and the multiplier is exactly 1 — the
// concurrency the stream relaxation buys.
func (p *PartitionedMatcher) contention() float64 {
	q := float64(p.cfg.Queues)
	if q <= 1 || p.key == keyStream {
		return 1
	}
	return 1 + 0.0375*math.Pow(q-1, 0.835)
}
