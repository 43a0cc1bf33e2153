// Package conformance is the differential-testing harness for the
// matching engines: it generates randomized workloads shaped like the
// paper's §IV trace statistics, runs every engine on them, and checks
// each result against the ordered oracle under the engine's declared
// semantic contract (a relaxation may diverge only as far as its level
// permits — and must reject exactly what it prohibits).
package conformance

import (
	"math/rand"

	"simtmp/internal/envelope"
)

// Workload is one matching problem instance: the unexpected-message
// queue contents and the posted-receive queue contents at the moment a
// communication kernel runs.
type Workload struct {
	Msgs []envelope.Envelope
	Reqs []envelope.Request
}

// GenConfig parameterizes workload generation. The defaults drawn by
// DrawConfig follow the paper's §IV observations: queue depths are
// usually small with a long tail, tags fit in 16 bits (most
// applications use far fewer), communicator counts are tiny, and
// wildcards appear in bursts per application rather than uniformly.
type GenConfig struct {
	// UMQDepth and PRQDepth are the queue lengths to generate.
	UMQDepth, PRQDepth int
	// TagBits bounds generated tags to [0, 1<<TagBits); 1..16.
	TagBits int
	// Comms is the number of distinct communicators (≥1).
	Comms int
	// Peers is the number of distinct source ranks (≥1).
	Peers int
	// SrcWild and TagWild are per-request wildcard probabilities.
	SrcWild, TagWild float64
	// DupRate is the probability that a message duplicates an earlier
	// message's {src,tag,comm} tuple — the case that distinguishes
	// ordered from unordered semantics.
	DupRate float64
	// HitRate is the probability that a request is derived from some
	// generated message (so matches actually occur) rather than drawn
	// independently.
	HitRate float64
	// Streams is the number of distinct ordering contexts (MPIX
	// streams) to spread envelopes over. 0 or 1 keeps every envelope on
	// the default stream — and, crucially, draws nothing extra from the
	// rng, so pre-stream seeded workloads replay bit-identically.
	Streams int
}

// depthBuckets reflects the paper's queue-depth distribution: §IV
// reports average search depths of a handful of entries with rare
// excursions into the hundreds. Sizes skew small so a full conformance
// run (10k workloads × every engine) stays fast.
var depthBuckets = []struct {
	weight int
	lo, hi int
}{
	{45, 0, 8},
	{30, 9, 32},
	{18, 33, 64},
	{6, 65, 128},
	{1, 129, 256},
}

func drawDepth(rng *rand.Rand) int {
	total := 0
	for _, b := range depthBuckets {
		total += b.weight
	}
	n := rng.Intn(total)
	for _, b := range depthBuckets {
		if n < b.weight {
			return b.lo + rng.Intn(b.hi-b.lo+1)
		}
		n -= b.weight
	}
	return 0
}

// DrawConfig samples a generation config. Wildcard use is bursty: most
// workloads have none (matching the traced applications that never use
// them), a minority use them densely.
func DrawConfig(rng *rand.Rand) GenConfig {
	cfg := GenConfig{
		UMQDepth: drawDepth(rng),
		PRQDepth: drawDepth(rng),
		TagBits:  1 + rng.Intn(16),
		Comms:    1 + rng.Intn(4),
		Peers:    1 + rng.Intn(64),
		DupRate:  []float64{0, 0, 0.1, 0.5}[rng.Intn(4)],
		HitRate:  0.7,
	}
	switch rng.Intn(4) {
	case 0: // wildcard-free (hash-eligible) workload
	case 1:
		cfg.TagWild = 0.3
	case 2:
		cfg.SrcWild = 0.3
	default:
		cfg.SrcWild, cfg.TagWild = 0.2, 0.2
	}
	return cfg
}

// Generate builds a workload from the config, deterministically given
// the rng state.
func Generate(rng *rand.Rand, cfg GenConfig) Workload {
	if cfg.TagBits <= 0 || cfg.TagBits > 16 {
		cfg.TagBits = 16
	}
	if cfg.Comms <= 0 {
		cfg.Comms = 1
	}
	if cfg.Peers <= 0 {
		cfg.Peers = 1
	}
	tagLim := int32(1) << cfg.TagBits

	w := Workload{
		Msgs: make([]envelope.Envelope, cfg.UMQDepth),
		Reqs: make([]envelope.Request, cfg.PRQDepth),
	}
	for i := range w.Msgs {
		if i > 0 && rng.Float64() < cfg.DupRate {
			// A duplicate repeats the full tuple, stream included — the
			// case that separates per-stream from global ordering.
			w.Msgs[i] = w.Msgs[rng.Intn(i)]
			continue
		}
		w.Msgs[i] = envelope.SanitizeEnvelope(
			int32(rng.Intn(cfg.Peers)),
			rng.Int31n(tagLim),
			int32(rng.Intn(cfg.Comms)),
		)
		if cfg.Streams > 1 {
			w.Msgs[i].Stream = envelope.Stream(rng.Intn(cfg.Streams)) & envelope.MaxStream
		}
	}
	for i := range w.Reqs {
		var e envelope.Envelope
		if len(w.Msgs) > 0 && rng.Float64() < cfg.HitRate {
			// Derived requests inherit the message's stream: there is no
			// stream wildcard, so a hit must name the stream exactly.
			e = w.Msgs[rng.Intn(len(w.Msgs))]
		} else {
			e = envelope.SanitizeEnvelope(
				int32(rng.Intn(cfg.Peers)),
				rng.Int31n(tagLim),
				int32(rng.Intn(cfg.Comms)),
			)
			if cfg.Streams > 1 {
				e.Stream = envelope.Stream(rng.Intn(cfg.Streams)) & envelope.MaxStream
			}
		}
		var wild uint8
		if rng.Float64() < cfg.SrcWild {
			wild |= 1
		}
		if rng.Float64() < cfg.TagWild {
			wild |= 2
		}
		r := envelope.SanitizeRequest(int32(e.Src), int32(e.Tag), int32(e.Comm), wild)
		r.Stream = e.Stream
		w.Reqs[i] = r
	}
	return w
}

// WorkloadAt deterministically derives workload i of a seeded run, the
// replay handle reported on failures: conformance.WorkloadAt(seed, i)
// reproduces exactly the failing instance.
func WorkloadAt(seed int64, i int) Workload {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio multiplier (2^64/φ)
	rng := rand.New(rand.NewSource(seed ^ int64(i)*mix))
	return Generate(rng, DrawConfig(rng))
}

// StreamWorkloadAt is WorkloadAt over stream-qualified workloads:
// the sampled config additionally spreads envelopes across 2..8 MPIX
// streams (always more than one, so every workload actually exercises
// the stream dimension of the match predicate). It is the replay
// handle of the stream conformance suite; the seed domain is disjoint
// from WorkloadAt's so the two runs never share instances.
func StreamWorkloadAt(seed int64, i int) Workload {
	const mix = int64(-0x61C8864680B583EB) // golden-ratio multiplier (2^64/φ)
	// The domain salt keeps these draws disjoint from WorkloadAt's.
	rng := rand.New(rand.NewSource(seed ^ int64(i)*mix ^ 0x5B957EA))
	cfg := DrawConfig(rng)
	cfg.Streams = 2 + rng.Intn(7)
	return Generate(rng, cfg)
}

// DecodeWorkload turns raw fuzzer bytes into a workload: one byte each
// for the queue depths, then 4 bytes per message {src, tagLo, tagHi,
// comm} and 5 per request (plus the wildcard selector). Every byte
// string decodes to a valid workload (sanitization instead of
// rejection sampling), so the fuzzer wastes no executions.
func DecodeWorkload(data []byte) Workload {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nm := int(next()) & 63
	nr := int(next()) & 63
	w := Workload{
		Msgs: make([]envelope.Envelope, nm),
		Reqs: make([]envelope.Request, nr),
	}
	for i := range w.Msgs {
		// Narrow ranges (16 sources, 4 comms) keep collisions — the
		// interesting case — frequent under random mutation.
		src := int32(next() & 0x0F)
		tag := int32(next()) | int32(next()&0x03)<<8
		comm := int32(next() & 0x03)
		w.Msgs[i] = envelope.SanitizeEnvelope(src, tag, comm)
	}
	for i := range w.Reqs {
		src := int32(next() & 0x0F)
		tag := int32(next()) | int32(next()&0x03)<<8
		comm := int32(next() & 0x03)
		wild := next() & 0x03
		w.Reqs[i] = envelope.SanitizeRequest(src, tag, comm, wild)
	}
	return w
}
