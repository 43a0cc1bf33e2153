package match

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/workload"
)

// TestParallelLaunchDeterministic pins the contract sweep-level host
// parallelism rests on: engine instances driven from concurrent
// goroutines, one fresh instance per batch as the report's sweeps run
// their points, return results bit-identical to one reused instance
// fed the same batches one after another —
// assignments, simulated seconds, counters and iteration counts. Run
// under -race in CI, it doubles as the check that engines share no
// mutable state across instances.
func TestParallelLaunchDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := arch.PascalGTX1080()
	type batch struct {
		msgs []envelope.Envelope
		reqs []envelope.Request
	}
	seeded := func(gen func(seed int64) ([]envelope.Envelope, []envelope.Request)) []batch {
		var out []batch
		for _, seed := range []int64{1, 7, 42, 20170529} {
			msgs, reqs := gen(seed)
			out = append(out, batch{msgs, reqs})
		}
		return out
	}
	rtMsgs, rtReqs := runtimeStreamWorkload(48)
	generic := func(seed int64) ([]envelope.Envelope, []envelope.Request) {
		return workload.Generate(workload.Config{N: 1500, Peers: 64, Tags: 32, Seed: seed})
	}
	engines := []struct {
		name    string
		build   func() ReusableMatcher
		batches []batch
	}{
		{
			"matrix", func() ReusableMatcher { return NewMatrixMatcher(MatrixConfig{Arch: a, MaxCTAs: 2}) },
			seeded(generic),
		},
		{
			"partitioned", func() ReusableMatcher {
				return NewPartitionedMatcher(PartitionedConfig{Arch: a, Queues: 8, MaxCTAs: 2})
			},
			seeded(generic),
		},
		{
			"stream", func() ReusableMatcher { return NewStreamMatcher(StreamConfig{Arch: a, Streams: 4}) },
			append(seeded(func(seed int64) ([]envelope.Envelope, []envelope.Request) {
				return streamWorkload(1500, 4, seed)
			}), batch{rtMsgs, rtReqs}),
		},
		{
			"hash", func() ReusableMatcher { return MustHashMatcher(HashConfig{Arch: a, CTAs: 4}) },
			seeded(func(seed int64) ([]envelope.Envelope, []envelope.Request) {
				return workload.UniqueTuples(1500, seed)
			}),
		},
	}

	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) {
			want := make([]Result, len(e.batches))
			seq := e.build()
			for i, b := range e.batches {
				if err := seq.MatchInto(&want[i], b.msgs, b.reqs); err != nil {
					t.Fatalf("batch %d: sequential: %v", i, err)
				}
			}
			got := make([]Result, len(e.batches))
			errs := make([]error, len(e.batches))
			var wg sync.WaitGroup
			for i, b := range e.batches {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = e.build().MatchInto(&got[i], b.msgs, b.reqs)
				}()
			}
			wg.Wait()
			for i := range e.batches {
				if errs[i] != nil {
					t.Fatalf("batch %d: concurrent: %v", i, errs[i])
				}
				sameResult(t, fmt.Sprintf("batch %d", i), &want[i], &got[i])
			}
		})
	}
}

// sameResult fails t unless got is bit-identical to want.
func sameResult(t *testing.T, what string, want, got *Result) {
	t.Helper()
	if len(want.Assignment) != len(got.Assignment) {
		t.Fatalf("%s: assignment lengths differ: %d vs %d", what, len(want.Assignment), len(got.Assignment))
	}
	for i := range want.Assignment {
		if want.Assignment[i] != got.Assignment[i] {
			t.Fatalf("%s: assignment[%d] = %d sequential, %d here", what, i, want.Assignment[i], got.Assignment[i])
		}
	}
	if wb, gb := math.Float64bits(want.SimSeconds), math.Float64bits(got.SimSeconds); wb != gb {
		t.Errorf("%s: SimSeconds not bit-identical: %v (%#x) vs %v (%#x)", what, want.SimSeconds, wb, got.SimSeconds, gb)
	}
	if want.Counters != got.Counters {
		t.Errorf("%s: counters diverge:\n%+v\n%+v", what, want.Counters, got.Counters)
	}
	if want.Iterations != got.Iterations {
		t.Errorf("%s: iterations %d vs %d", what, want.Iterations, got.Iterations)
	}
}
