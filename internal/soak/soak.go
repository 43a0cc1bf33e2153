// Package soak is the open-loop traffic driver: it offers arrivals to
// the reliable transport + matcher at a configured rate in simulated
// time — decoupled from the service rate, unlike every closed-loop
// bench in internal/bench — and records per-message arrival→match
// latency. Closed-loop harnesses measure throughput ceilings; this one
// measures what production cares about: p50/p99/p99.9 latency under
// sustained and bursty load, queue-depth high-watermarks, and how the
// relaxation levels behave when offered load approaches the wire's
// service capacity.
//
// Everything is deterministic: arrivals come from a seeded process in
// continuous simulated time, the runtime's transport clock advances in
// fixed poll quanta, and latencies are differences of simulated
// timestamps — so a soak's full latency record is a pure function of
// its Config, byte-identical across replays, across host-parallel
// engine execution, and under the race detector.
package soak

import (
	"fmt"
	"math/rand"
	"sort"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/mpx"
	"simtmp/internal/simt"
	"simtmp/internal/stats"
	"simtmp/internal/telemetry"
)

// Config parameterizes one soak run.
type Config struct {
	// Level is the semantic contract under load (default Unordered,
	// the paper's fastest relaxation).
	Level mpx.Level
	// GPUs is the cluster size (default 2, minimum 2).
	GPUs int
	// Seed drives both the arrival process and the traffic shape.
	Seed int64
	// Messages is the number of offered arrivals (default 100000).
	Messages int
	// Warmup is the number of initial arrivals excluded from the
	// latency record; runtime stats are re-based (Runtime.ResetStats)
	// when the first steady arrival is offered (default 0).
	Warmup int

	// Process selects Poisson or Bursty arrivals (default Poisson).
	Process Process
	// Rate is the offered load in arrivals per simulated second. Zero
	// derives it from Utilization.
	Rate float64
	// Utilization expresses the offered load as a fraction of the
	// wire's nominal service capacity — Window frames per directed
	// flow per poll interval (default 0.5). Ignored when Rate is set.
	Utilization float64
	// Burst shapes the Bursty process (see BurstConfig).
	Burst BurstConfig

	// Tags is the per-flow tag-space modulus (default 16384, max
	// 65536). Under Unordered the driver fails fast if a flow ever
	// holds Tags outstanding messages, which would wrap the space and
	// violate the level's tuple-uniqueness contract.
	Tags int
	// PayloadBytes sizes each message's payload (default 0: header-
	// only traffic, the matching-dominated regime).
	PayloadBytes int

	// Window and QueueCap pass through to the runtime (0 = defaults).
	Window   int
	QueueCap int
	// Fault, when non-nil, runs the soak over the fault-injection
	// plane — chaos under load.
	Fault *fault.Config
	// Overload shapes a mid-run overload phase (rate multiplier over a
	// window of arrivals) and the runtime's bounded-queue caps and shed
	// policy. Zero value: no overload, unbounded queues — the
	// historical behavior.
	Overload OverloadConfig
	// Telemetry, when non-nil and enabled, attaches the flight
	// recorder; the driver additionally registers a "soak.latency_us"
	// histogram in its metrics registry.
	Telemetry *telemetry.Config

	// KeepRecords retains the per-message latency in Report.Records
	// (µs, indexed by arrival order) — exact quantiles and the
	// determinism tests' witness. Off, quantiles come from the bounded
	// histogram, keeping multi-million-message soaks in constant
	// memory.
	KeepRecords bool
	// MaxSteps bounds the progress steps before the driver declares
	// the run wedged (0 = derived from the expected duration).
	MaxSteps int
}

func (c Config) withDefaults() Config {
	if c.GPUs <= 0 {
		c.GPUs = 2
	}
	if c.Messages <= 0 {
		c.Messages = 100_000
	}
	if c.Utilization <= 0 {
		c.Utilization = 0.5
	}
	if c.Tags <= 0 {
		c.Tags = 16384
	}
	c.Burst = c.Burst.withDefaults()
	c.Overload = c.Overload.withDefaults()
	return c
}

// latencyBuckets is the shared exponential bucket layout for latency
// histograms, in microseconds of simulated time: 1/8 µs up to ~2.9 s.
func latencyBuckets() []float64 { return stats.ExpBuckets(0.125, 1.25, 76) }

// Quantiles summarizes a latency distribution in microseconds of
// simulated time.
type Quantiles struct {
	P50, P90, P99, P999 float64
	Mean, Min, Max      float64
}

// Report is the outcome of one soak run.
type Report struct {
	// Configuration echo.
	Process  Process
	Level    mpx.Level
	Seed     int64
	GPUs     int
	Messages int
	Warmup   int
	// OfferedRate is the configured mean arrival rate (msgs per
	// simulated second); DeliveredRate is the measured steady rate.
	OfferedRate   float64
	DeliveredRate float64
	// Steps and SimSeconds span the whole run including the drain
	// tail.
	Steps      int
	SimSeconds float64
	// Latency holds the arrival→match quantiles over the steady
	// window (µs of simulated time) — exact when KeepRecords was set,
	// bucket-interpolated otherwise.
	Latency Quantiles
	// PRQPeak is the posted-receive residency high-watermark;
	// UMQPeak is the unexpected-message residency high-watermark.
	PRQPeak, UMQPeak int
	// Stats is the runtime's accounting re-based at the end of
	// warmup.
	Stats mpx.Stats
	// Hist is the bounded latency histogram (µs buckets).
	Hist *stats.Histogram
	// Records is the per-message latency in µs, indexed by arrival
	// order (steady window only; nil unless Config.KeepRecords).
	Records []float64
	// Stream is the live streamer's accounting when the telemetry
	// config attached one (zero otherwise); the driver finalizes the
	// stream before returning, so Dropped here is the run's total loss.
	Stream telemetry.StreamStats

	// Overload accounting (meaningful only when Config.Overload is
	// active). OverloadStart/OverloadEnd are the arrival indices of
	// the overload window; SheddedArrivals counts arrivals the driver
	// shed client-side at typed backpressure (excluded from every
	// latency quantile; runtime-side sheds are in Stats).
	OverloadStart, OverloadEnd int
	SheddedArrivals            int
	// CapsOK asserts the configured bounds held for the whole run:
	// neither the unexpected-message nor the posted-receive residency
	// peak ever exceeded its cap (vacuously true for unset caps).
	CapsOK bool
	// Recovery SLO (requires KeepRecords and an overload rate window):
	// SteadyP99 is the pre-overload steady p99 (µs), RecoveryP99 the
	// p99 of the first post-overload window under RecoveryFactor ×
	// SteadyP99, RecoverySimSeconds how much simulated time that took
	// from the overload end, and Recovered whether it happened at all.
	SteadyP99, RecoveryP99, RecoverySimSeconds float64
	Recovered                                  bool
}

// Run executes one soak. Errors surface misconfiguration, transport
// failures (stalls, exhausted retry budgets under a fault plane), tag-
// space exhaustion under Unordered, and wedged runs (MaxSteps).
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.GPUs < 2 {
		return nil, fmt.Errorf("soak: need at least 2 GPUs, got %d", cfg.GPUs)
	}
	if cfg.Warmup >= cfg.Messages {
		return nil, fmt.Errorf("soak: warmup %d must stay below messages %d", cfg.Warmup, cfg.Messages)
	}
	if cfg.Tags > int(envelope.MaxTag)+1 {
		return nil, fmt.Errorf("soak: tag space %d exceeds the %d-value envelope budget", cfg.Tags, int(envelope.MaxTag)+1)
	}
	if cfg.Process == Bursty {
		if err := cfg.Burst.validate(); err != nil {
			return nil, err
		}
	}
	if err := cfg.Overload.validate(); err != nil {
		return nil, err
	}

	// Delivery bookkeeping, filled by the runtime's delivery hook.
	type pending struct {
		idx  int
		flow int32
	}
	var (
		arrive   = make([]float64, cfg.Messages)
		inflight = make(map[*mpx.Recv]pending, 1024)
		flowOut  = make([]int, cfg.GPUs*cfg.GPUs)
		hist     = stats.NewHistogram(latencyBuckets())
		records  []float64
		outstand = 0
		prqPeak  = 0
		umqPeak  = 0
		mhist    *telemetry.Histogram
	)
	if cfg.KeepRecords {
		records = make([]float64, cfg.Messages-cfg.Warmup)
	}

	over := cfg.Overload
	rt := mpx.New(mpx.Config{
		Level: cfg.Level, GPUs: cfg.GPUs, QueueCap: cfg.QueueCap,
		Window: cfg.Window, Fault: cfg.Fault, Telemetry: cfg.Telemetry,
		UMQCap: over.UMQCap, PRQCap: over.PRQCap,
		StagingCap: over.StagingCap, Shed: over.Shed,
		OnDeliver: func(r *mpx.Recv, now float64) {
			p, ok := inflight[r]
			if !ok {
				return
			}
			delete(inflight, r)
			flowOut[p.flow]--
			outstand--
			if p.idx < cfg.Warmup {
				return
			}
			lat := (now - arrive[p.idx]) * 1e6
			hist.Observe(lat)
			mhist.Observe(lat)
			if records != nil {
				records[p.idx-cfg.Warmup] = lat
			}
		},
	})
	if rec := rt.Recorder(); rec != nil {
		mhist = rec.Metrics().Histogram("soak.latency_us", latencyBuckets())
	}

	poll := rt.Poll()
	window := cfg.Window
	if window <= 0 {
		window = 64
	}
	flows := cfg.GPUs * (cfg.GPUs - 1)
	rate := cfg.Rate
	if rate <= 0 {
		rate = cfg.Utilization * float64(window*flows) / poll
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		expected := float64(cfg.Messages) / rate / poll
		maxSteps = 10_000 + int(20*expected)
	}

	// Two independent streams so retuning the arrival process never
	// perturbs the traffic shape, and vice versa.
	procRng := rand.New(rand.NewSource(cfg.Seed))
	shapeRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	arr := newArrivals(cfg.Process, rate, cfg.Burst, procRng)
	tagNext := make([]int, cfg.GPUs*cfg.GPUs)

	// Overload window in arrival indices. Inside it, the seeded
	// inter-arrival deltas are divided by the overload factor — same
	// random sequence, compressed in time — so the overloaded replay
	// shares its randomness with the steady one.
	overStart := int(float64(cfg.Messages) * over.StartFrac)
	overEnd := int(float64(cfg.Messages) * over.EndFrac)
	scaleRate := over.Factor > 1
	rawPrev, schedPrev := 0.0, 0.0
	nextArrival := func(idx int) float64 {
		raw := arr.next()
		if !scaleRate {
			// No rate window: hand back the process's absolute times
			// untouched, bit-identical to the pre-overload driver.
			return raw
		}
		delta := raw - rawPrev
		rawPrev = raw
		if idx >= overStart && idx < overEnd {
			delta /= over.Factor
		}
		schedPrev += delta
		return schedPrev
	}
	shedArrivals := 0

	next := nextArrival(0)
	sent, steps := 0, 0
	for sent < cfg.Messages || outstand > 0 {
		now := float64(steps) * poll
		for sent < cfg.Messages && next <= now {
			if sent == cfg.Warmup && cfg.Warmup > 0 {
				rt.ResetStats()
			}
			src := shapeRng.Intn(cfg.GPUs)
			dst := (src + 1 + shapeRng.Intn(cfg.GPUs-1)) % cfg.GPUs
			f := src*cfg.GPUs + dst
			if cfg.Level == mpx.Unordered && flowOut[f] >= cfg.Tags {
				return nil, fmt.Errorf("soak: flow %d→%d holds %d outstanding messages, wrapping the %d-tag space under Unordered; raise Tags or lower the offered rate", src, dst, flowOut[f], cfg.Tags)
			}
			if over.active() && (rt.PostRecvWouldBlock(dst) || rt.SendWouldBlock(src, dst)) {
				// Typed backpressure: shed the arrival client-side,
				// whole — nothing half-posted, nothing silently lost.
				// The slot is recorded as shed so quantiles and the
				// recovery metric exclude it.
				shedArrivals++
				arrive[sent] = next
				if records != nil && sent >= cfg.Warmup {
					records[sent-cfg.Warmup] = shedSentinel
				}
				sent++
				next = nextArrival(sent)
				continue
			}
			tag := envelope.Tag(tagNext[f] % cfg.Tags)
			tagNext[f]++
			if err := rt.Send(src, dst, tag, 0, payloadFor(cfg.PayloadBytes)); err != nil {
				return nil, fmt.Errorf("soak: arrival %d: %w", sent, err)
			}
			r, err := rt.PostRecv(dst, envelope.Rank(src), tag, 0)
			if err != nil {
				return nil, fmt.Errorf("soak: arrival %d: %w", sent, err)
			}
			arrive[sent] = next
			inflight[r] = pending{idx: sent, flow: int32(f)}
			flowOut[f]++
			outstand++
			sent++
			next = nextArrival(sent)
		}
		// Residency peaks are sampled at the step edge: receives posted
		// and not yet delivered entering the match step (PRQ), and
		// messages still pending after it (UMQ).
		if outstand > prqPeak {
			prqPeak = outstand
		}
		if err := rt.Progress(); err != nil {
			return nil, fmt.Errorf("soak: step %d (%d offered, %d outstanding): %w", steps, sent, outstand, err)
		}
		steps++
		if u := rt.Stats().Unmatched; u > umqPeak {
			umqPeak = u
		}
		if steps > maxSteps {
			return nil, fmt.Errorf("soak: wedged after %d steps with %d receives outstanding (offered %d of %d)", steps, outstand, sent, cfg.Messages)
		}
	}

	// Finalize a live stream so the emitted trace is complete when Run
	// returns and the loss accounting is final.
	var streamStats telemetry.StreamStats
	if rec := rt.Recorder(); rec != nil {
		if err := rec.CloseStream(); err != nil {
			return nil, fmt.Errorf("soak: close stream: %w", err)
		}
		streamStats = rec.Stream().Stats()
	}

	st := rt.Stats()
	simSeconds := float64(steps) * poll
	rep := &Report{
		Process: cfg.Process, Level: cfg.Level, Seed: cfg.Seed,
		GPUs: cfg.GPUs, Messages: cfg.Messages, Warmup: cfg.Warmup,
		OfferedRate: rate, Steps: steps, SimSeconds: simSeconds,
		PRQPeak: prqPeak, UMQPeak: umqPeak, Stats: st,
		Hist: hist, Records: records, Stream: streamStats,
	}
	if simSeconds > 0 {
		rep.DeliveredRate = float64(cfg.Messages-shedArrivals) / simSeconds
	}
	rep.Latency = quantiles(hist, records)

	rep.CapsOK = true
	if over.active() {
		rep.OverloadStart, rep.OverloadEnd = overStart, overEnd
		rep.SheddedArrivals = shedArrivals
		fc := rt.FlowControl()
		if fc.UMQCapEffective > 0 && umqPeak > fc.UMQCapEffective*cfg.GPUs {
			rep.CapsOK = false
		}
		if fc.PRQCap > 0 && prqPeak > fc.PRQCap*cfg.GPUs {
			rep.CapsOK = false
		}
		if scaleRate && records != nil {
			applyRecovery(rep, over, arrive, cfg.Warmup, overStart, overEnd)
		}
	}
	return rep, nil
}

// payloadFor returns a shared read-only payload of the given size; the
// runtime never mutates payloads, so all messages may alias one
// buffer.
var sharedPayload []byte

func payloadFor(n int) []byte {
	if n <= 0 {
		return nil
	}
	if len(sharedPayload) < n {
		sharedPayload = make([]byte, n)
	}
	return sharedPayload[:n]
}

// quantiles derives the latency summary — exact from raw records when
// available, bucket-interpolated from the histogram otherwise.
func quantiles(h *stats.Histogram, records []float64) Quantiles {
	if len(records) > 0 {
		// Shed arrivals carry the negative sentinel — offered, never
		// sent — and are excluded from every quantile.
		s := make([]float64, 0, len(records))
		for _, x := range records {
			if x >= 0 {
				s = append(s, x)
			}
		}
		if len(s) == 0 {
			return Quantiles{}
		}
		sort.Float64s(s)
		sum := 0.0
		for _, x := range s {
			sum += x
		}
		return Quantiles{
			P50:  stats.Quantile(s, 0.5),
			P90:  stats.Quantile(s, 0.9),
			P99:  stats.Quantile(s, 0.99),
			P999: stats.Quantile(s, 0.999),
			Mean: sum / float64(len(s)),
			Min:  s[0],
			Max:  s[len(s)-1],
		}
	}
	if h.N() == 0 {
		return Quantiles{}
	}
	return Quantiles{
		P50:  h.Quantile(0.5),
		P90:  h.Quantile(0.9),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
		Mean: h.Mean(),
		Min:  h.Min(),
		Max:  h.Max(),
	}
}

// SuiteConfig runs the same soak across several seeds — the hardened
// form every wall-clock-free SLO claim goes through, after the beads
// benchmark-validation protocol: deterministic replay makes rerun
// variance exactly zero, so the meaningful stability check is the
// spread across seeds, gated at MaxSpread.
type SuiteConfig struct {
	// Base is the per-run configuration; run i uses Base.Seed+i.
	Base Config
	// Seeds is the number of seeds (default 3).
	Seeds int
	// Workers fans the runs across host goroutines via
	// simt.ParallelFor (0 = GOMAXPROCS, the default; 1 = one after
	// another). Results are byte-identical to sequential execution.
	Workers int
	// MaxSpread is the relative cross-seed spread the quantiles must
	// stay within (default 0.10, the beads 10% gate).
	MaxSpread float64
}

// SuiteReport aggregates a multi-seed soak.
type SuiteReport struct {
	Runs []*Report
	// P50/P99/P999 are cross-seed means (µs of simulated time).
	P50, P99, P999 float64
	// PRQPeak/UMQPeak are cross-seed maxima.
	PRQPeak, UMQPeak int
	// Spread is the worst relative cross-seed spread ((max−min)/mean)
	// over the three quantiles; SpreadOK gates it at MaxSpread.
	Spread   float64
	SpreadOK bool
}

// RunSuite executes the suite. Per-run errors abort with the first
// failing seed named.
func RunSuite(sc SuiteConfig) (*SuiteReport, error) {
	if sc.Seeds <= 0 {
		sc.Seeds = 3
	}
	if sc.MaxSpread <= 0 {
		sc.MaxSpread = 0.10
	}
	runs := make([]*Report, sc.Seeds)
	errs := make([]error, sc.Seeds)
	simt.ParallelFor(sc.Seeds, sc.Workers, func(i int) {
		cfg := sc.Base
		cfg.Seed = sc.Base.Seed + int64(i)
		runs[i], errs[i] = Run(cfg)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("soak: seed %d: %w", sc.Base.Seed+int64(i), err)
		}
	}

	rep := &SuiteReport{Runs: runs}
	spread := func(pick func(*Report) float64) float64 {
		min, max, sum := pick(runs[0]), pick(runs[0]), 0.0
		for _, r := range runs {
			v := pick(r)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		if sum == 0 {
			return 0
		}
		return (max - min) / (sum / float64(len(runs)))
	}
	mean := func(pick func(*Report) float64) float64 {
		sum := 0.0
		for _, r := range runs {
			sum += pick(r)
		}
		return sum / float64(len(runs))
	}
	p50 := func(r *Report) float64 { return r.Latency.P50 }
	p99 := func(r *Report) float64 { return r.Latency.P99 }
	p999 := func(r *Report) float64 { return r.Latency.P999 }
	rep.P50, rep.P99, rep.P999 = mean(p50), mean(p99), mean(p999)
	for _, r := range runs {
		if r.PRQPeak > rep.PRQPeak {
			rep.PRQPeak = r.PRQPeak
		}
		if r.UMQPeak > rep.UMQPeak {
			rep.UMQPeak = r.UMQPeak
		}
	}
	rep.Spread = spread(p50)
	if s := spread(p99); s > rep.Spread {
		rep.Spread = s
	}
	if s := spread(p999); s > rep.Spread {
		rep.Spread = s
	}
	rep.SpreadOK = rep.Spread <= sc.MaxSpread
	return rep, nil
}
