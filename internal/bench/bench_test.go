// Benchmarks regenerating every table and figure of the paper's
// evaluation. Wall-clock numbers measure the simulator itself; the
// reproduced result of each experiment is reported as a custom metric
// (sim_Mmatches/s = matches per SIMULATED second, the paper's y-axis).
//
//	go test -bench=. ./internal/bench

package bench

import (
	"flag"
	"fmt"
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/match"
	"simtmp/internal/workload"
)

// workloadSeed makes every benchmark workload replayable from the
// command line: each call site has a fixed default seed (so runs are
// deterministic out of the box), and -workload.seed overrides them all
// to re-run the full suite on a different but equally reproducible
// input set:
//
//	go test -bench=. ./internal/bench -workload.seed=7
var workloadSeed = flag.Int64("workload.seed", 0, "override the per-benchmark workload seeds (0: use defaults)")

// benchSeed resolves the seed one benchmark uses: the -workload.seed
// override when set, the benchmark's own default otherwise.
func benchSeed(def int64) int64 {
	if *workloadSeed != 0 {
		return *workloadSeed
	}
	return def
}

// BenchmarkCPUListMatcher is the §II-C CPU reference: the list-based
// matcher measured in real host wall-clock. The paper reports ~30M
// matches/s for short queues and <5M past 512 entries.
func BenchmarkCPUListMatcher(b *testing.B) {
	for _, n := range []int{16, 128, 512, 2048} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			msgs, reqs := workload.FullyMatching(n, benchSeed(int64(n)))
			l := match.NewListMatcher()
			b.ResetTimer()
			matched := 0
			for i := 0; i < b.N; i++ {
				res, err := l.Match(msgs, reqs)
				if err != nil {
					b.Fatal(err)
				}
				matched = res.Assignment.Matched()
			}
			b.ReportMetric(float64(matched*b.N)/b.Elapsed().Seconds()/1e6, "Mmatches/s")
		})
	}
}

// BenchmarkFigure4 regenerates Figure 4: single-CTA MPI-compliant
// matrix matching per architecture and queue length.
func BenchmarkFigure4(b *testing.B) {
	for _, a := range arch.All() {
		for _, n := range []int{256, 1024} {
			a := a
			b.Run(fmt.Sprintf("%s/len=%d", a.Generation, n), func(b *testing.B) {
				msgs, reqs := workload.FullyMatching(n, benchSeed(int64(n)))
				m := match.NewMatrixMatcher(match.MatrixConfig{Arch: a})
				var rate float64
				for i := 0; i < b.N; i++ {
					res, err := m.Match(msgs, reqs)
					if err != nil {
						b.Fatal(err)
					}
					rate = res.Rate()
				}
				b.ReportMetric(rate/1e6, "sim_Mmatches/s")
			})
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5: rank-partitioned matching on
// Pascal across queue counts.
func BenchmarkFigure5(b *testing.B) {
	for _, q := range []int{1, 4, 16, 32} {
		q := q
		b.Run(fmt.Sprintf("queues=%d", q), func(b *testing.B) {
			msgs, reqs := workload.Generate(workload.Config{N: 2048, Peers: 64, Tags: 32, Seed: benchSeed(2)})
			p := match.NewPartitionedMatcher(match.PartitionedConfig{Queues: q, MaxCTAs: 2})
			var rate float64
			for i := 0; i < b.N; i++ {
				res, err := p.Match(msgs, reqs)
				if err != nil {
					b.Fatal(err)
				}
				rate = res.Rate()
			}
			b.ReportMetric(rate/1e6, "sim_Mmatches/s")
		})
	}
}

// BenchmarkFigure6b regenerates Figure 6b: hash-table matching per
// architecture and CTA count.
func BenchmarkFigure6b(b *testing.B) {
	for _, a := range arch.All() {
		for _, ctas := range []int{1, 32} {
			a, ctas := a, ctas
			b.Run(fmt.Sprintf("%s/ctas=%d", a.Generation, ctas), func(b *testing.B) {
				msgs, reqs := workload.UniqueTuples(1024, benchSeed(6))
				h, err := match.NewHashMatcher(match.HashConfig{Arch: a, CTAs: ctas})
				if err != nil {
					b.Fatal(err)
				}
				var rate float64
				for i := 0; i < b.N; i++ {
					res, err := h.Match(msgs, reqs)
					if err != nil {
						b.Fatal(err)
					}
					rate = res.Rate()
				}
				b.ReportMetric(rate/1e6, "sim_Mmatches/s")
			})
		}
	}
}

// BenchmarkTableI regenerates the Table I application analysis
// (generation + queue reconstruction of all ten proxy apps).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := TableI(1)
		if len(rows) != 10 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates the Figure 2 queue-depth analysis.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Figure2(1)
		if len(rows) != 10 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkFigure6a regenerates the Figure 6a tuple-uniqueness
// analysis.
func BenchmarkFigure6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Figure6a(1)
		if len(rows) != 10 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkTableII regenerates the six-row relaxation summary.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := TableII()
		if len(out) != 6 {
			b.Fatalf("got %d rows", len(out))
		}
		if i == b.N-1 {
			b.ReportMetric(out[5].RateM, "hash_sim_Mmatches/s")
			b.ReportMetric(out[1].RateM, "matrix_sim_Mmatches/s")
		}
	}
}

// BenchmarkAblationCompaction regenerates the §VI-B compaction cost.
func BenchmarkAblationCompaction(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		rows := AblationCompaction()
		pct = rows[len(rows)-1].OverheadPct
	}
	b.ReportMetric(pct, "overhead_%")
}

// BenchmarkAblationMatchFraction regenerates the §VI-B match-fraction
// scaling.
func BenchmarkAblationMatchFraction(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		for _, r := range AblationMatchFraction() {
			if r.Fraction == 0.5 {
				rel = r.RelToFull
			}
		}
	}
	b.ReportMetric(rel, "rate_at_50%_matched")
}

// BenchmarkOrderSensitivity regenerates the §V-B ordered-vs-reversed
// receive queue experiment.
func BenchmarkOrderSensitivity(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		rows := OrderSensitivity()
		slow = rows[0].Slowdown
	}
	b.ReportMetric(slow, "reversed_slowdown_x")
}

// BenchmarkHashAblation regenerates the hash-function × collision
// policy study (§VI-C future work).
func BenchmarkHashAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := HashAblation()
		if len(rows) != 6 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkSIMTEngine measures the raw simulator throughput (host
// wall-clock per simulated match) — the cost of the reproduction
// itself, not a paper result.
func BenchmarkSIMTEngine(b *testing.B) {
	msgs, reqs := workload.FullyMatching(1024, benchSeed(9))
	m := match.NewMatrixMatcher(match.MatrixConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(msgs, reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(1024*b.N)/b.Elapsed().Seconds()/1e6, "host_Mmatches/s")
}

// BenchmarkApplicability regenerates the per-application engine
// applicability matrix (the quantified §VI feasibility discussion).
func BenchmarkApplicability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Applicability(1)
		if len(rows) != 10 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkAblationWildcardHash regenerates the wildcard-in-hash-table
// cost study.
func BenchmarkAblationWildcardHash(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rows := AblationWildcardHash()
		rel = rows[len(rows)-1].RelToNone
	}
	b.ReportMetric(rel, "rate_at_25%_wildcards")
}

// BenchmarkMessageSizes regenerates the end-to-end message-size sweep
// (eager/rendezvous protocol crossover).
func BenchmarkMessageSizes(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		rows := MessageSizes()
		bw = rows[len(rows)-1].EffectiveGBs
	}
	b.ReportMetric(bw, "GB/s_at_1MB")
}

// BenchmarkStreaming regenerates the sustained-load dynamics study.
func BenchmarkStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Streaming()
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}
