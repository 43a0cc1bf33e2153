package bench

import (
	"errors"
	"fmt"
	"io"

	"simtmp/internal/envelope"
	"simtmp/internal/match"
	"simtmp/internal/trace"
)

// ApplicabilityRow reports, for one proxy application, which
// relaxation levels its communication pattern admits and the matching
// rate each feasible engine achieves on the application's own workload
// — the quantified version of the paper's §VI feasibility discussion.
type ApplicabilityRow struct {
	App string
	// Workload size extracted from the busiest rank's trace.
	Messages int
	Requests int

	MatrixRateM float64 // always feasible (full MPI)

	PartitionedOK    bool // requires no MPI_ANY_SOURCE
	PartitionedRateM float64

	HashOK    bool // requires no wildcards AND per-pair tag uniqueness
	HashRateM float64

	// Speedup of the best feasible relaxation over the compliant
	// matrix engine.
	BestSpeedup float64
}

// rankWorkload extracts the matching workload of the busiest receiver
// in a trace: arrivals at that rank (message queue) and its posted
// receives (request queue).
func rankWorkload(tr *trace.Trace) ([]envelope.Envelope, []envelope.Request) {
	counts := make([]int, tr.Ranks)
	for _, e := range tr.Events {
		if e.Kind == trace.Send {
			counts[e.Peer]++
		}
	}
	busiest := 0
	for r, c := range counts {
		if c > counts[busiest] {
			busiest = r
		}
	}
	var msgs []envelope.Envelope
	var reqs []envelope.Request
	for _, e := range tr.Events {
		switch {
		case e.Kind == trace.Send && e.Peer == busiest:
			msgs = append(msgs, envelope.Envelope{
				Src: envelope.Rank(e.Rank), Tag: envelope.Tag(e.Tag), Comm: envelope.Comm(e.Comm),
			})
		case e.Kind == trace.Recv && e.Rank == busiest:
			r := envelope.Request{Src: envelope.Rank(e.Peer), Tag: envelope.Tag(e.Tag), Comm: envelope.Comm(e.Comm)}
			if e.Peer == trace.AnySourcePeer {
				r.Src = envelope.AnySource
			}
			if e.Tag == trace.AnyTagValue {
				r.Tag = envelope.AnyTag
			}
			reqs = append(reqs, r)
		}
	}
	return msgs, reqs
}

// hashFeasible reports whether the unordered relaxation is safe for a
// workload: no wildcards and, per (src,comm) pair, no tag reused among
// concurrently pending messages (here: within the whole batch).
// Applications violating it would need restructuring, which is the
// "high" user implication of Table II.
func hashFeasible(msgs []envelope.Envelope, reqs []envelope.Request) bool {
	for _, r := range reqs {
		if r.HasWildcard() {
			return false
		}
	}
	seen := make(map[uint64]bool, len(msgs))
	for _, m := range msgs {
		k := m.Key()
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// Applicability runs every proxy application's busiest-rank workload
// through every engine its semantics admit.
func Applicability(seed int64) []ApplicabilityRow {
	var out []ApplicabilityRow
	for _, a := range appPass(seed) {
		msgs, reqs := a.msgs, a.reqs
		row := ApplicabilityRow{App: a.spec.Name, Messages: len(msgs), Requests: len(reqs)}

		mx := mustMatch(match.NewMatrixMatcher(match.MatrixConfig{Compact: true}), msgs, reqs)
		row.MatrixRateM = mrate(mx.Assignment.Matched(), mx.SimSeconds)
		best := row.MatrixRateM

		part := match.NewPartitionedMatcher(match.PartitionedConfig{
			Queues: 16, MaxCTAs: (len(msgs) + 1023) / 1024, Compact: true,
		})
		pres, err := part.Match(msgs, reqs)
		switch {
		case err == nil:
			row.PartitionedOK = true
			row.PartitionedRateM = mrate(pres.Assignment.Matched(), pres.SimSeconds)
			if row.PartitionedRateM > best {
				best = row.PartitionedRateM
			}
		case errors.Is(err, match.ErrSourceWildcard):
			// Infeasible for this application (MiniDFT, MiniFE).
		default:
			panic(fmt.Sprintf("bench: applicability %s partitioned: %v", a.spec.Name, err))
		}

		if hashFeasible(msgs, reqs) {
			h := match.MustHashMatcher(match.HashConfig{CTAs: 32})
			hres := mustMatch(h, msgs, reqs)
			row.HashOK = true
			row.HashRateM = mrate(hres.Assignment.Matched(), hres.SimSeconds)
			if row.HashRateM > best {
				best = row.HashRateM
			}
		}

		row.BestSpeedup = best / row.MatrixRateM
		out = append(out, row)
	}
	return out
}

// PrintApplicability formats the per-application applicability matrix.
func PrintApplicability(w io.Writer, rows []ApplicabilityRow) {
	header(w, "Applicability: which relaxation fits which application (busiest-rank workload)")
	fmt.Fprintln(w, "app        msgs   reqs   matrix     partitioned     hash          best-speedup")
	for _, r := range rows {
		part := "   infeasible"
		if r.PartitionedOK {
			part = fmt.Sprintf("%9.2fM   ", r.PartitionedRateM)
		}
		hash := "  needs-restructure"
		if r.HashOK {
			hash = fmt.Sprintf("%10.2fM        ", r.HashRateM)
		}
		fmt.Fprintf(w, "%-10s %5d  %5d  %7.2fM  %s %s %7.1fx\n",
			r.App, r.Messages, r.Requests, r.MatrixRateM, part, hash, r.BestSpeedup)
	}
}
