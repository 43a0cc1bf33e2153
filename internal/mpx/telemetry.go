package mpx

import (
	"fmt"

	"simtmp/internal/simt"
	"simtmp/internal/stats"
	"simtmp/internal/telemetry"
)

// Interned transport-event names, resolved once at package init (see
// internal/match/telemetry.go). All emission happens under rt.mu in
// the deterministic progress order, stamped with the simulated
// transport clock — never host time — so chaos replays export
// byte-identical traces.
var (
	evSend            = telemetry.Name("mpx.send")
	evRetransmit      = telemetry.Name("mpx.retransmit")
	evCreditStall     = telemetry.Name("mpx.credit_stall")
	evMatch           = telemetry.Name("mpx.match")
	evShed            = telemetry.Name("mpx.shed")
	evNack            = telemetry.Name("mpx.nack")
	evHealth          = telemetry.Name("mpx.health")
	evCacheSeal       = telemetry.Name("match.cache.seal")
	evCacheHit        = telemetry.Name("match.cache.hit")
	evCacheInvalidate = telemetry.Name("match.cache.invalidate")
	argDst            = telemetry.Name("dst")
	argFlow           = telemetry.Name("flow")
	argAttempts       = telemetry.Name("attempts")
	argQueued         = telemetry.Name("queued")
	argMatched        = telemetry.Name("matched")
	argPending        = telemetry.Name("pending")
	argState          = telemetry.Name("state")
	argOcc            = telemetry.Name("occupancy_millis")
	argHandle         = telemetry.Name("handle")
	argParts          = telemetry.Name("parts")
)

// statCounters is the runtime's registry counter set: each row names a
// metric and the Stats field it follows. The runtime publishes the
// table at every progress-step boundary and again from ResetStats, so
// a registry counter reads its Stats field as of the last step and
// re-bases with it.
var statCounters = []struct {
	name  string
	field func(*Stats) int
}{
	{"mpx.sends", func(s *Stats) int { return s.Sends }},
	{"mpx.retries", func(s *Stats) int { return s.Retries }},
	{"mpx.sheds", func(s *Stats) int { return s.Sheds }},
	{"mpx.nacks", func(s *Stats) int { return s.Nacks }},
	{"mpx.credit_stalls", func(s *Stats) int { return s.CreditStalls }},
	{"mpx.health_transitions", func(s *Stats) int { return s.StateTransitions }},
	{"match.cache.hits", func(s *Stats) int { return s.CacheHits }},
	{"match.cache.misses", func(s *Stats) int { return s.CacheMisses }},
	{"match.cache.seals", func(s *Stats) int { return s.CacheSeals }},
	{"match.cache.invalidations", func(s *Stats) int { return s.CacheInvalidations }},
}

// publishCountersLocked stores every statCounters row into its registry
// counter (a no-op when telemetry is off). None of the rows is an
// external counter, so the runtime's own stats are the merged view.
func (rt *Runtime) publishCountersLocked() {
	for i, c := range rt.counters {
		c.Set(int64(statCounters[i].field(&rt.stats)))
	}
}

// setupTelemetry builds the runtime's recorder (one track per GPU),
// registers its metrics, and attaches the recorder to the fault plane.
// Called from New before the engines are built so they can share the
// recorder; a nil/disabled config leaves every handle nil, which the
// telemetry package defines as valid no-ops.
func (rt *Runtime) setupTelemetry() {
	if rt.cfg.Telemetry == nil || !rt.cfg.Telemetry.Enabled {
		return
	}
	tcfg := *rt.cfg.Telemetry
	if tcfg.Tracks < rt.cfg.GPUs {
		tcfg.Tracks = rt.cfg.GPUs
	}
	rt.rec = telemetry.New(tcfg)
	for g := 0; g < rt.cfg.GPUs; g++ {
		rt.rec.SetTrackName(g, fmt.Sprintf("GPU %d", g))
	}
	reg := rt.rec.Metrics()
	rt.counters = make([]*telemetry.Counter, len(statCounters))
	for i, row := range statCounters {
		rt.counters[i] = reg.Counter(row.name)
	}
	depths := stats.ExpBuckets(1, 2, 12)
	rt.mUMQDepth = reg.Histogram("mpx.umq.depth", depths)
	rt.mPRQDepth = reg.Histogram("mpx.prq.depth", depths)
	if rt.injector != nil {
		rt.injector.SetRecorder(rt.rec)
	}
	// Launch boundaries are batch boundaries for the live streamer:
	// pump after every kernel on the cluster's devices so a streamed
	// run only needs the ring to hold one launch's emissions.
	for g := 0; g < rt.cfg.GPUs; g++ {
		if gpu := rt.cluster.GPU(g); gpu != nil && gpu.Device != nil {
			gpu.Device.AfterLaunch = func(*simt.LaunchStats) { rt.rec.Pump() }
		}
	}
}

// Recorder returns the runtime's flight recorder (nil when telemetry
// is disabled — itself a valid no-op recorder).
func (rt *Runtime) Recorder() *telemetry.Recorder { return rt.rec }
