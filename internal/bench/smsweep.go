package bench

import (
	"fmt"
	"io"

	"simtmp/internal/match"
	"simtmp/internal/simt"
	"simtmp/internal/workload"
)

// SMRow is one point of the multi-SM experiment: §VI-A remarks that
// "if multiple SMs were used, the performance would be increasing
// linearly since all CTAs would be running in parallel, however, less
// resources would be available to execute the application". This
// sweep quantifies that trade: a long queue needing 8 CTAs, matched
// with 1..8 SMs dedicated to the communication kernel.
type SMRow struct {
	Engine  string
	SMs     int
	RateM   float64
	Speedup float64
	// AppSMsLeft is what remains for the application on a GTX1080
	// (20 SMs total).
	AppSMsLeft int
}

// SMSweep measures matrix and partitioned matching on an 8-CTA
// workload across communication-SM counts.
func SMSweep() []SMRow {
	const n = 8192 // 8 CTAs of 1024 messages
	msgs, reqs := workload.Generate(workload.Config{N: n, Peers: 64, Tags: 32, Seed: 4})
	smCounts := []int{1, 2, 4, 8}
	engines := []struct {
		name  string
		build func(sms int) match.Matcher
	}{
		{"matrix", func(sms int) match.Matcher {
			return match.NewMatrixMatcher(match.MatrixConfig{MaxCTAs: 8, SMs: sms})
		}},
		{"partitioned", func(sms int) match.Matcher {
			return match.NewPartitionedMatcher(match.PartitionedConfig{Queues: 32, MaxCTAs: 8, SMs: sms})
		}},
	}
	out := make([]SMRow, len(engines)*len(smCounts))
	simt.ParallelFor(len(out), 0, func(k int) {
		e, sms := engines[k/len(smCounts)], smCounts[k%len(smCounts)]
		res := mustMatch(e.build(sms), msgs, reqs)
		out[k] = SMRow{
			Engine: e.name, SMs: sms, RateM: mrate(res.Assignment.Matched(), res.SimSeconds), AppSMsLeft: 20 - sms,
		}
	})
	// Speedups are relative to each engine's one-SM row.
	for k := range out {
		out[k].Speedup = out[k].RateM / out[k-k%len(smCounts)].RateM
	}
	return out
}

// PrintSMSweep formats the multi-SM experiment.
func PrintSMSweep(w io.Writer, rows []SMRow) {
	header(w, "Multi-SM scaling: communication-kernel SMs vs matching rate (§VI-A remark)")
	fmt.Fprintln(w, "engine       sms  matches/s  speedup  app-sms-left")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %4d  %8.2fM  %6.2fx  %12d\n", r.Engine, r.SMs, r.RateM, r.Speedup, r.AppSMsLeft)
	}
}
