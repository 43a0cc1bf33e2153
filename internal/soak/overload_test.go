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
// p99 recovers, and the entire report is byte-identical across the
// sequential and host-parallel engines.
func TestOverloadBoundedDeterministic(t *testing.T) {
	cfg := overloadBase(mpx.ShedDropOldest)

	cfg.EngineWorkers = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	cfg.EngineWorkers = 0
	par, err := Run(cfg)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	if !seq.CapsOK {
		t.Fatalf("caps violated: UMQ peak %d, PRQ peak %d", seq.UMQPeak, seq.PRQPeak)
	}
	if seq.SheddedArrivals == 0 && seq.Stats.Sheds == 0 {
		t.Fatalf("overload window shed nothing; the scenario is not exercising backpressure")
	}
	if seq.Stats.ShedDrops != seq.Stats.ShedRecovered {
		t.Fatalf("silent loss: %d frames shed by drop policy, %d recovered", seq.Stats.ShedDrops, seq.Stats.ShedRecovered)
	}
	if seq.OverloadStart >= seq.OverloadEnd {
		t.Fatalf("overload window [%d,%d) not recorded", seq.OverloadStart, seq.OverloadEnd)
	}
	if seq.SteadyP99 <= 0 {
		t.Fatalf("steady p99 not computed")
	}
	if !seq.Recovered {
		t.Fatalf("post-overload p99 never re-entered %v× steady (steady %v µs, last window %v µs)",
			cfg.Overload.RecoveryFactor, seq.SteadyP99, seq.RecoveryP99)
	}
	if seq.RecoverySimSeconds < 0 {
		t.Fatalf("negative recovery time %v", seq.RecoverySimSeconds)
	}

	// Engine-mode equivalence, down to every per-message latency and
	// every shed slot.
	if !reflect.DeepEqual(seq.Records, par.Records) {
		t.Fatalf("per-message records diverge across engine modes")
	}
	seqCopy, parCopy := *seq, *par
	seqCopy.Records, parCopy.Records = nil, nil
	seqCopy.Hist, parCopy.Hist = nil, nil
	if !reflect.DeepEqual(seqCopy, parCopy) {
		t.Fatalf("reports diverge across engine modes:\nseq: %+v\npar: %+v", seqCopy, parCopy)
	}
}

// TestOverloadReplayIdentical pins replay determinism: the same config
// yields the same shed counts and records, byte for byte.
func TestOverloadReplayIdentical(t *testing.T) {
	cfg := overloadBase(mpx.ShedDropNewest)
	cfg.EngineWorkers = 1
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
	cfg.EngineWorkers = 1
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
	rep, err := Run(Config{GPUs: 2, Seed: 1, Messages: 1500, EngineWorkers: 1, KeepRecords: true})
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
