package match

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/simt"
	"simtmp/internal/workload"
)

// parallelBatch is one MatchInto input of TestParallelLaunchDeterministic.
// side names where its first fan-out lands against the simt grain:
// "below" must run inline under auto Workers and "above" must fan out;
// "" leaves it unchecked.
type parallelBatch struct {
	name string
	side string
	msgs []envelope.Envelope
	reqs []envelope.Request
}

// TestParallelLaunchDeterministic pins the engine-level determinism
// contract of host parallelism: for every fan-out engine, running the
// same batches with Workers 0 (auto), 1 (sequential) and 4 (forced
// fan-out) must produce bit-identical assignments, simulated seconds,
// counters and iteration counts — host goroutines may only change
// wall-clock. Each engine also gets one batch just below the simt
// fan-out grain and one just above it, so auto takes both paths. Run
// under -race in CI, this doubles as the data-race check on the
// parallel paths.
func TestParallelLaunchDeterministic(t *testing.T) {
	// At GOMAXPROCS 1 auto never fans out, so the side checks need more.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := arch.PascalGTX1080()
	seeded := func(gen func(seed int64) ([]envelope.Envelope, []envelope.Request)) []parallelBatch {
		var out []parallelBatch
		for _, seed := range []int64{1, 7, 42, 20170529} {
			msgs, reqs := gen(seed)
			out = append(out, parallelBatch{fmt.Sprintf("seed%d", seed), "", msgs, reqs})
		}
		return out
	}
	generic := func(seed int64) ([]envelope.Envelope, []envelope.Request) {
		return workload.Generate(workload.Config{N: 1500, Peers: 64, Tags: 32, Seed: seed})
	}
	edge := func(side string) func([]envelope.Envelope, []envelope.Request) parallelBatch {
		return func(msgs []envelope.Envelope, reqs []envelope.Request) parallelBatch {
			return parallelBatch{fmt.Sprintf("%s-grain-%dx%d", side, len(msgs), len(reqs)), side, msgs, reqs}
		}
	}
	matrixWork := func(_ ReusableMatcher, b parallelBatch) int {
		// The first window's scan: warps × lanes × window.
		warps := (len(b.msgs) + simt.LaneCount - 1) / simt.LaneCount
		return warps * simt.LaneCount * min(DefaultWindow, len(b.reqs))
	}
	partitionWork := func(m ReusableMatcher, b parallelBatch) int {
		// The first round, from the partitions the call just filled.
		p := m.(*PartitionedMatcher)
		return p.roundWork(0, p.cfg.MaxCTAs*simt.MaxWarpsPerCTA/p.cfg.Queues*simt.LaneCount)
	}
	hashWork := func(_ ReusableMatcher, b parallelBatch) int {
		// The first insert phase: one pending lane per request.
		return len(b.reqs)
	}

	engines := []struct {
		name    string
		build   func(workers int) ReusableMatcher
		batches []parallelBatch
		work    func(m ReusableMatcher, b parallelBatch) int
	}{
		{
			"matrix", func(w int) ReusableMatcher {
				return NewMatrixMatcher(MatrixConfig{Arch: a, MaxCTAs: 2, Workers: w})
			},
			// The simt grain is 48 Ki lane operations; 11 and 12 warps
			// scan 44 Ki and 48 Ki lane votes a window.
			append(seeded(generic),
				edge("below")(workload.FullyMatching(352, 5)),
				edge("above")(workload.FullyMatching(384, 5))),
			matrixWork,
		},
		{
			"partitioned", func(w int) ReusableMatcher {
				return NewPartitionedMatcher(PartitionedConfig{Arch: a, Queues: 8, MaxCTAs: 2, Workers: w})
			},
			append(seeded(generic),
				edge("below")(workload.Generate(workload.Config{N: 480, Peers: 64, Tags: 32, Seed: 5})),
				edge("above")(workload.Generate(workload.Config{N: 576, Peers: 64, Tags: 32, Seed: 5}))),
			partitionWork,
		},
		{
			"stream", func(w int) ReusableMatcher {
				return NewStreamMatcher(StreamConfig{Arch: a, Streams: 4, Workers: w})
			},
			append(seeded(func(seed int64) ([]envelope.Envelope, []envelope.Request) {
				return streamWorkload(1500, 4, seed)
			}),
				edge("below")(runtimeStreamWorkload(256)),
				edge("above")(runtimeStreamWorkload(288))),
			partitionWork,
		},
		{
			"hash", func(w int) ReusableMatcher {
				return MustHashMatcher(HashConfig{Arch: a, CTAs: 4, Workers: w})
			},
			append(seeded(func(seed int64) ([]envelope.Envelope, []envelope.Request) {
				return workload.UniqueTuples(1500, seed)
			}),
				// One pending lane per request: 512 either side of 48 Ki.
				edge("below")(workload.UniqueTuples(48<<10-512, 5)),
				edge("above")(workload.UniqueTuples(48<<10+512, 5))),
			hashWork,
		},
	}

	for _, e := range engines {
		e := e
		t.Run(e.name, func(t *testing.T) {
			seq := e.build(1)
			others := []struct {
				workers int
				m       ReusableMatcher
			}{{0, e.build(0)}, {4, e.build(4)}}
			for _, b := range e.batches {
				var want Result
				if err := seq.MatchInto(&want, b.msgs, b.reqs); err != nil {
					t.Fatalf("%s: sequential: %v", b.name, err)
				}
				if b.side != "" {
					work := e.work(seq, b)
					if inline := simt.WorkersFor(0, work) == 1; inline != (b.side == "below") {
						t.Errorf("%s: first fan-out estimates %d lane operations, which is not %s the grain", b.name, work, b.side)
					}
				}
				for _, o := range others {
					var got Result
					if err := o.m.MatchInto(&got, b.msgs, b.reqs); err != nil {
						t.Fatalf("%s: workers %d: %v", b.name, o.workers, err)
					}
					sameResult(t, fmt.Sprintf("%s: workers %d", b.name, o.workers), &want, &got)
				}
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
