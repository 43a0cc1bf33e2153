package match

import (
	"runtime"
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/telemetry"
	"simtmp/internal/workload"
)

// reusableCases builds steady-state MatchInto cases per GPU engine on
// representative workloads: the default configurations (matrix,
// partitioned, hash and stream, all with default Workers), plus the
// compacting matrix and partitioned engines the runtime builds (on
// workloads where half the messages find no receive, so compaction
// keeps a residue) and multi-SM variants. Each runs both
// telemetry-disabled (nil recorder) and telemetry-enabled with a small
// ring that wraps within warm-up. All are configurations the
// zero-allocation contract covers: a full flight-recorder ring
// overwrites in place, so enabling telemetry must not reintroduce
// steady-state allocations.
func reusableCases() []struct {
	name string
	m    ReusableMatcher
	run  func(res *Result) error
} {
	a := arch.PascalGTX1080()
	fullMsgs, fullReqs := workload.FullyMatching(256, 1)
	partMsgs, partReqs := workload.Generate(workload.Config{N: 1024, Peers: 64, Tags: 32, Seed: 1})
	uniqMsgs, uniqReqs := workload.UniqueTuples(1024, 1)
	streamMsgs, streamReqs := streamWorkload(512, 8, 9)
	residueReqs, partResidueReqs := fullReqs[:len(fullReqs)/2], partReqs[:len(partReqs)/2]

	type c = struct {
		name string
		m    ReusableMatcher
		run  func(res *Result) error
	}
	var cases []c
	for _, traced := range []bool{false, true} {
		var rec *telemetry.Recorder
		suffix := ""
		if traced {
			// A deliberately tiny ring: one warm-up call fills it, so the
			// measured calls exercise the at-capacity overwrite path.
			rec = telemetry.New(telemetry.Config{Enabled: true, Tracks: 1, BufferSize: 16})
			suffix = "+telemetry"
		}
		{
			m := NewMatrixMatcher(MatrixConfig{Arch: a, Recorder: rec})
			cases = append(cases, c{"matrix" + suffix, m, func(res *Result) error {
				return m.MatchInto(res, fullMsgs, fullReqs)
			}})
		}
		{
			m := NewPartitionedMatcher(PartitionedConfig{Arch: a, Queues: 8, MaxCTAs: 2, Recorder: rec})
			cases = append(cases, c{"partitioned" + suffix, m, func(res *Result) error {
				return m.MatchInto(res, partMsgs, partReqs)
			}})
		}
		{
			m := MustHashMatcher(HashConfig{Arch: a, CTAs: 4, Recorder: rec})
			cases = append(cases, c{"hash" + suffix, m, func(res *Result) error {
				return m.MatchInto(res, uniqMsgs, uniqReqs)
			}})
		}
		{
			m := NewStreamMatcher(StreamConfig{Arch: a, Streams: 8, Recorder: rec})
			cases = append(cases, c{"stream" + suffix, m, func(res *Result) error {
				return m.MatchInto(res, streamMsgs, streamReqs)
			}})
		}
		for _, sms := range []int{1, 2} {
			name := "+compact"
			if sms > 1 {
				name = "+compact+sms2"
			}
			mm := NewMatrixMatcher(MatrixConfig{Arch: a, Compact: true, SMs: sms, Recorder: rec})
			cases = append(cases, c{"matrix" + name + suffix, mm, func(res *Result) error {
				return mm.MatchInto(res, fullMsgs, residueReqs)
			}})
			pm := NewPartitionedMatcher(PartitionedConfig{Arch: a, Queues: 8, MaxCTAs: 2, Compact: true, SMs: sms, Recorder: rec})
			cases = append(cases, c{"partitioned" + name + suffix, pm, func(res *Result) error {
				return pm.MatchInto(res, partMsgs, partResidueReqs)
			}})
		}
	}
	return cases
}

// TestMatchIntoZeroAlloc asserts the steady-state zero-allocation
// contract: after one warm-up call grows the scratch buffers, repeated
// MatchInto calls on the same shape allocate nothing.
func TestMatchIntoZeroAlloc(t *testing.T) {
	for _, c := range reusableCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var res Result
			if err := c.run(&res); err != nil { // warm scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := c.run(&res); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: MatchInto allocates %v per steady-state call, want 0", c.name, allocs)
			}
		})
	}
}

// TestMatchIntoZeroAllocMultiWorker is TestMatchIntoZeroAlloc on the
// fan-out path: testing.AllocsPerRun pins GOMAXPROCS to 1, where the
// default Workers resolve to a plain loop, so this variant counts
// runtime.MemStats.Mallocs over batches of calls at GOMAXPROCS 4. It
// wants one batch of steady-state calls that allocates nothing (see
// steadyMallocs).
func TestMatchIntoZeroAllocMultiWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const calls = 50
	for _, c := range reusableCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var res Result
			run := func() {
				if err := c.run(&res); err != nil {
					t.Fatal(err)
				}
			}
			if n := steadyMallocs(calls, run); n != 0 {
				t.Errorf("%s: every batch of %d MatchInto calls at GOMAXPROCS 4 allocated, at least %d times; want a batch with 0",
					c.name, calls, n)
			}
		})
	}
}

// steadyMallocs returns the fewest heap allocations any batch of calls
// consecutive calls of f made, over up to 20 batches (stopping at the
// first clean one). The first batch grows the scratch buffers and
// starts simt's worker pool, and on a loaded host the runtime itself
// allocates now and then when it starts another OS thread to run a
// woken goroutine; an allocation on f's own path recurs in every
// batch, so it can never read 0.
func steadyMallocs(calls int, f func()) uint64 {
	batch := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	best := batch()
	for b := 1; b < 20 && best != 0; b++ {
		best = min(best, batch())
	}
	return best
}

// BenchmarkMatchInto is the benchmark-backed form of the contract:
// run with -benchmem to see ns/op and allocs/op per engine.
func BenchmarkMatchInto(b *testing.B) {
	for _, c := range reusableCases() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var res Result
			if err := c.run(&res); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.run(&res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
