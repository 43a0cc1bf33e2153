package soak

import (
	"runtime"
	"testing"

	"simtmp/internal/mpx"
)

// soakRecords runs one soak with records kept and returns the raw
// per-message latency array.
func soakRecords(t *testing.T, cfg Config) []float64 {
	t.Helper()
	cfg.KeepRecords = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	return rep.Records
}

// sameRecords compares two latency records for byte identity (exact
// float equality, position by position — no tolerance).
func sameRecords(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: record lengths differ: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: record %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestSoakDeterministicReplay pins the core guarantee: the same Config
// yields byte-identical latency records on every run.
func TestSoakDeterministicReplay(t *testing.T) {
	cfg := Config{Level: mpx.Unordered, Seed: 11, Messages: 15_000, Process: Bursty}
	if testing.Short() {
		cfg.Messages = 4_000
	}
	a := soakRecords(t, cfg)
	b := soakRecords(t, cfg)
	sameRecords(t, "replay", a, b)
}

// TestSoakDeterministicAcrossSuiteWorkers pins that running seeds
// concurrently via simt.ParallelFor (RunSuite Workers 0, GOMAXPROCS,
// here 4) yields the same records as running them one after another
// (Workers 1). Under `go test -race` it doubles as the data-race audit
// of concurrent soak runs.
func TestSoakDeterministicAcrossSuiteWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := Config{Level: mpx.Unordered, Seed: 17, Messages: 8_000, KeepRecords: true}
	if testing.Short() {
		base.Messages = 3_000
	}
	run := func(workers int) *SuiteReport {
		sr, err := RunSuite(SuiteConfig{Base: base, Workers: workers})
		if err != nil {
			t.Fatalf("suite workers=%d: %v", workers, err)
		}
		return sr
	}
	s1 := run(1)
	s0 := run(0) // GOMAXPROCS
	for i := range s1.Runs {
		sameRecords(t, "suite sequential vs parallel", s1.Runs[i].Records, s0.Runs[i].Records)
	}
	if s1.Spread != s0.Spread || s1.P99 != s0.P99 {
		t.Errorf("aggregates differ: spread %v vs %v, p99 %v vs %v",
			s1.Spread, s0.Spread, s1.P99, s0.P99)
	}
}

// TestSoakDeterministicLevels replays each level and the fault plane to
// make sure determinism is not an Unordered-only accident.
func TestSoakDeterministicLevels(t *testing.T) {
	for _, lvl := range []mpx.Level{mpx.FullMPI, mpx.NoSourceWildcard, mpx.NoUnexpected, mpx.Unordered, mpx.StreamOrdered} {
		cfg := Config{Level: lvl, Seed: 19, Messages: 4_000}
		sameRecords(t, lvl.String(), soakRecords(t, cfg), soakRecords(t, cfg))
	}
}
