package bench

import (
	"fmt"
	"io"

	"simtmp/internal/arch"
	"simtmp/internal/match"
	"simtmp/internal/workload"
)

// StreamScalingRow is one point of the MPIX Stream relaxation summary
// (DESIGN.md §17): the stream-concurrent matcher on a Table-II-shaped
// workload spread over Streams ordering contexts, against the
// full-MPI matrix engine on the identical workload.
type StreamScalingRow struct {
	// Streams is the number of ordering contexts the workload spans
	// (and the matcher partitions on).
	Streams int
	// RateM is the stream engine's simulated matching rate.
	RateM float64
	// FullRateM is the full-MPI matrix engine's rate on the same
	// workload (it treats the stream id as one more envelope field).
	FullRateM float64
	// Speedup is RateM / FullRateM: the concurrency unlocked by owing
	// ordering per stream instead of globally.
	Speedup float64
}

// StreamScaling measures the stream-ordered relaxation across stream
// counts on Pascal with the Table II workload shape (1024 entries,
// 10% source wildcards, 70% posted). Per-stream ordering keeps both
// wildcards admissible, so the comparison isolates exactly what the
// relaxation buys: the matrix reduce phase shrinking to per-stream
// sub-problems with no cross-queue contention.
func StreamScaling() []StreamScalingRow {
	const n = 1024
	a := arch.PascalGTX1080()

	var rows []StreamScalingRow
	for _, s := range []int{1, 2, 4, 8} {
		cfg := workload.Config{N: n, Peers: 64, Tags: 32, Seed: 1, Streams: s}
		cfg.SrcWildcards = 0.1
		cfg.Requests = n * 7 / 10
		msgs, reqs := workload.Generate(cfg)

		// The reference is the plain full-MPI matrix (no unexpected-queue
		// compaction on either side), so the speedup isolates the ordering
		// relaxation rather than a compaction-cost difference.
		full := mustMatch(match.NewMatrixMatcher(match.MatrixConfig{Arch: a}), msgs, reqs)
		str := mustMatch(match.NewStreamMatcher(match.StreamConfig{Arch: a, Streams: s}), msgs, reqs)
		if got, want := str.Assignment.Matched(), full.Assignment.Matched(); got < want {
			// The relaxation must not lose matches: per-stream matching
			// partitions the problem, it never shrinks it.
			panic(fmt.Sprintf("bench: stream s=%d matched %d < full-MPI %d", s, got, want))
		}

		row := StreamScalingRow{
			Streams:   s,
			RateM:     mrate(str.Assignment.Matched(), str.SimSeconds),
			FullRateM: mrate(full.Assignment.Matched(), full.SimSeconds),
		}
		if row.FullRateM > 0 {
			row.Speedup = row.RateM / row.FullRateM
		}
		rows = append(rows, row)
	}
	return rows
}

// StreamScalingRecords converts the stream table into regress records: one
// simulated rate per stream count plus the headline 8-stream speedup
// over full MPI — the gated claim that the ordering relaxation, not
// a different engine, buys the throughput.
func StreamScalingRecords(rows []StreamScalingRow) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, simRecord(fmt.Sprintf("stream/s%d", r.Streams), r.RateM))
		if r.Streams == 8 {
			out = append(out, BenchRecord{
				Name:  "stream/speedup_s8_vs_full",
				Value: r.Speedup, Unit: "x", HigherIsBetter: true,
			})
		}
	}
	return out
}

// PrintStreamScaling formats the stream relaxation summary.
func PrintStreamScaling(w io.Writer, rows []StreamScalingRow) {
	header(w, "MPIX Stream relaxation (Pascal GTX1080, 1024-element queues, Table II shape)")
	fmt.Fprintln(w, "streams  stream engine  full-MPI matrix  speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d  %11.2fM  %13.2fM  %6.2fx\n",
			r.Streams, r.RateM, r.FullRateM, r.Speedup)
	}
}
