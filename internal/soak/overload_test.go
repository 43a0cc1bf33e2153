package soak

import (
	"reflect"
	"testing"

	"simtmp/internal/mpx"
)

// overloadBase is a soak with a 2× rate window over bounded queues:
// small enough to run under -race in CI, hot enough that the overload
// window actually sheds.
func overloadBase(shed mpx.ShedPolicy) Config {
	// Warmup stays 0: frames parked before a warmup ResetStats and
	// recovered after it would skew the ShedDrops==ShedRecovered
	// ledger this suite asserts on.
	return Config{
		Level:       mpx.Unordered,
		GPUs:        3,
		Seed:        7,
		Messages:    6000,
		Utilization: 0.6,
		KeepRecords: true,
		Overload: OverloadConfig{
			Factor:     2.0,
			UMQCap:     48,
			PRQCap:     64,
			StagingCap: 16,
			Shed:       shed,
			WindowMsgs: 200,
		},
	}
}

// TestOverloadBoundedDeterministic is the acceptance spine: under a 2×
// overload window with bounded queues, the residency peaks never
// exceed the caps, something actually sheds (the overload is real),
// every shed is accounted (client-side count + runtime ShedDrops ==
// ShedRecovered at quiescence — no silent loss), the post-overload
// p99 recovers, and the entire report is byte-identical on replay.
func TestOverloadBoundedDeterministic(t *testing.T) {
	cfg := overloadBase(mpx.ShedDropOldest)

	first, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	replay, err := Run(cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}

	if !first.CapsOK {
		t.Fatalf("caps violated: UMQ peak %d, PRQ peak %d", first.UMQPeak, first.PRQPeak)
	}
	if first.SheddedArrivals == 0 && first.Stats.Sheds == 0 {
		t.Fatalf("overload window shed nothing; the scenario is not exercising backpressure")
	}
	if first.Stats.ShedDrops != first.Stats.ShedRecovered {
		t.Fatalf("silent loss: %d frames shed by drop policy, %d recovered", first.Stats.ShedDrops, first.Stats.ShedRecovered)
	}
	if first.OverloadStart >= first.OverloadEnd {
		t.Fatalf("overload window [%d,%d) not recorded", first.OverloadStart, first.OverloadEnd)
	}
	if first.SteadyP99 <= 0 {
		t.Fatalf("steady p99 not computed")
	}
	if !first.Recovered {
		t.Fatalf("post-overload p99 never re-entered %v× steady (steady %v µs, last window %v µs)",
			cfg.Overload.RecoveryFactor, first.SteadyP99, first.RecoveryP99)
	}
	if first.RecoverySimSeconds < 0 {
		t.Fatalf("negative recovery time %v", first.RecoverySimSeconds)
	}

	// Replay equivalence, down to every per-message latency and every
	// shed slot.
	if !reflect.DeepEqual(first.Records, replay.Records) {
		t.Fatalf("per-message records diverge on replay")
	}
	firstCopy, replayCopy := *first, *replay
	firstCopy.Records, replayCopy.Records = nil, nil
	firstCopy.Hist, replayCopy.Hist = nil, nil
	if !reflect.DeepEqual(firstCopy, replayCopy) {
		t.Fatalf("reports diverge on replay:\nfirst:  %+v\nreplay: %+v", firstCopy, replayCopy)
	}
}

// TestOverloadReplayIdentical pins replay determinism: the same config
// yields the same shed counts and records, byte for byte.
func TestOverloadReplayIdentical(t *testing.T) {
	cfg := overloadBase(mpx.ShedDropNewest)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.SheddedArrivals != b.SheddedArrivals || a.Stats != b.Stats || a.UMQPeak != b.UMQPeak || a.PRQPeak != b.PRQPeak {
		t.Fatalf("replay diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatalf("replay records diverged")
	}
}

// TestOverloadRejectShedsClientSide pins the ShedReject contract in
// the driver: the would-block probes fire before Send/PostRecv, so
// every shed is a whole arrival (no half-posted state), the runtime
// never has to reject, and shed slots are excluded from quantiles.
func TestOverloadRejectShedsClientSide(t *testing.T) {
	cfg := overloadBase(mpx.ShedReject)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SheddedArrivals == 0 {
		t.Fatalf("reject policy under 2× overload shed nothing")
	}
	if rep.Stats.ShedRejects != 0 || rep.Stats.RecvRejects != 0 {
		t.Fatalf("driver let %d/%d rejects reach the runtime; probes should shed first",
			rep.Stats.ShedRejects, rep.Stats.RecvRejects)
	}
	if rep.Stats.ShedDrops != 0 {
		t.Fatalf("reject policy parked %d frames", rep.Stats.ShedDrops)
	}
	if !rep.CapsOK {
		t.Fatalf("caps violated under reject policy: UMQ %d PRQ %d", rep.UMQPeak, rep.PRQPeak)
	}
	if rep.Latency.Min < 0 {
		t.Fatalf("shed sentinel leaked into quantiles: min %v", rep.Latency.Min)
	}
	if rep.Latency.P99 <= 0 {
		t.Fatalf("quantiles empty after sentinel filtering")
	}
}

// TestOverloadInactiveLeavesReportClean: a plain soak reports CapsOK
// (vacuously) and zeroed overload fields — the historical surface.
func TestOverloadInactiveLeavesReportClean(t *testing.T) {
	rep, err := Run(Config{GPUs: 2, Seed: 1, Messages: 1500, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CapsOK {
		t.Fatalf("vacuous CapsOK should be true")
	}
	if rep.SheddedArrivals != 0 || rep.OverloadEnd != 0 || rep.Recovered {
		t.Fatalf("inactive overload polluted the report: %+v", rep)
	}
}
