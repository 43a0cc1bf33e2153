// Package bench regenerates every table and figure of the paper's
// evaluation: one runner per experiment, each returning typed rows and
// able to print the same series the paper reports. The calibration
// tests in this package pin the simulated rates to the published
// bands, making the reproduction claims executable.
//
// The sweeps run their independent points through simt.ParallelFor:
// each point builds its own matcher and workload and writes its own
// index-addressed row, so the rows are bit-identical for any worker
// count or GOMAXPROCS; only host wall-clock changes. Host-timed
// sections (the CPU reference and the endpoint cpu-list rows) run one
// point after another.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"simtmp/internal/envelope"
	"simtmp/internal/match"
	"simtmp/internal/workload"
)

// mrate converts matches and simulated seconds into M matches/s.
func mrate(matches int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(matches) / seconds / 1e6
}

// uniqueOrderedWorkload builds n messages and n requests where message
// i matches request i and only request i (distinct tuples in queue
// order) — the §V-B order-sensitivity workload.
func uniqueOrderedWorkload(n int) ([]envelope.Envelope, []envelope.Request) {
	msgs := make([]envelope.Envelope, n)
	reqs := make([]envelope.Request, n)
	for i := 0; i < n; i++ {
		e := envelope.Envelope{Src: envelope.Rank(i % 64), Tag: envelope.Tag(i / 64)}
		msgs[i] = e
		reqs[i] = envelope.Request{Src: e.Src, Tag: e.Tag, Comm: e.Comm}
	}
	return msgs, reqs
}

// mustMatch runs an engine and panics on error (bench workloads are
// constructed valid; an error is a bug, not an input problem).
func mustMatch(m match.Matcher, msgs []envelope.Envelope, reqs []envelope.Request) *match.Result {
	res, err := m.Match(msgs, reqs)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", m.Name(), err))
	}
	return res
}

// CPURow is one point of the §II-C CPU reference: the list-based
// matcher measured in real wall-clock on the host, alongside the
// binned (Flajslik-style, §III) CPU optimization.
type CPURow struct {
	QueueLen int
	// RateM is real (not simulated) matches per second, in millions.
	RateM float64
	// BinnedRateM is the hash-binned CPU matcher on the same workload.
	BinnedRateM float64
	// BinSpeedup is BinnedRateM / RateM.
	BinSpeedup float64
}

// CPUReference measures the host list matcher across queue lengths.
// The paper reports ~30M matches/s for short queues collapsing below
// 5M past 512 entries; the absolute numbers here depend on the host,
// but the collapse shape is machine-independent. Each matcher is timed
// in cpuRounds interleaved rounds and keeps its fastest, so one noisy
// timed loop on a shared host cannot skew a row.
func CPUReference() []CPURow {
	const cpuRounds = 3
	lengths := []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	out := make([]CPURow, 0, len(lengths))
	l := match.NewListMatcher()
	bl := match.NewBinnedListMatcher(64)
	timeIt := func(m match.Matcher, msgs []envelope.Envelope, reqs []envelope.Request, iters int) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			mustMatch(m, msgs, reqs)
		}
		return time.Since(start).Seconds()
	}
	for _, n := range lengths {
		msgs, reqs := workload.FullyMatching(n, int64(n))
		iters := 1 + (1<<22)/(n*n/2+n)/cpuRounds
		binIters := iters * 4
		mustMatch(l, msgs, reqs) // warm up
		mustMatch(bl, msgs, reqs)
		listSec, binSec := math.Inf(1), math.Inf(1)
		for r := 0; r < cpuRounds; r++ {
			listSec = min(listSec, timeIt(l, msgs, reqs, iters))
			binSec = min(binSec, timeIt(bl, msgs, reqs, binIters))
		}
		row := CPURow{
			QueueLen:    n,
			RateM:       mrate(n*iters, listSec),
			BinnedRateM: mrate(n*binIters, binSec),
		}
		row.BinSpeedup = row.BinnedRateM / row.RateM
		out = append(out, row)
	}
	return out
}

// PrintCPUReference formats the CPU reference table.
func PrintCPUReference(w io.Writer, rows []CPURow) {
	fmt.Fprintln(w, "CPU matching (host wall-clock): list baseline (§II-C) vs hash bins (§III)")
	fmt.Fprintln(w, "queue_len  list       binned     bin-speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%9d  %7.2fM  %8.2fM  %9.1fx\n", r.QueueLen, r.RateM, r.BinnedRateM, r.BinSpeedup)
	}
}

// header prints an underlined section title.
func header(w io.Writer, title string) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("-", len(title)))
}
