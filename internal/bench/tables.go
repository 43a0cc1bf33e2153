package bench

import (
	"fmt"
	"io"
	"sync"

	"simtmp/internal/apps"
	"simtmp/internal/envelope"
	"simtmp/internal/simt"
	"simtmp/internal/stats"
	"simtmp/internal/trace"
)

// appTrace is what the report reads of one proxy application's trace:
// its spec, its §IV statistics and its busiest rank's matching
// workload. The trace's events are dropped once analyzed.
type appTrace struct {
	spec  apps.Spec
	ranks int
	stats *trace.Stats
	msgs  []envelope.Envelope
	reqs  []envelope.Request
}

// analyzeApps generates and analyzes every application's trace at
// seed, one application per worker, in Table I order.
func analyzeApps(seed int64) []appTrace {
	models := apps.All()
	out := make([]appTrace, len(models))
	simt.ParallelFor(len(models), 0, func(i int) {
		tr := models[i].Generate(0, seed)
		msgs, reqs := rankWorkload(tr)
		out[i] = appTrace{spec: models[i].Spec, ranks: tr.Ranks, stats: trace.Analyze(tr), msgs: msgs, reqs: reqs}
	})
	return out
}

// appPasses memoizes analyzeApps per seed, as a func() []appTrace
// that computes it once: every §IV section and the applicability matrix
// project the one pass, so a process generates and analyzes each trace
// once. A pass at seed 1 holds about 1 MB: ten Stats, and busiest-rank
// workloads of 28,376 messages and as many receives at 16 bytes each.
var appPasses sync.Map

// appPass returns the memoized pass of seed. Callers must not modify it.
func appPass(seed int64) []appTrace {
	pass, _ := appPasses.LoadOrStore(seed, sync.OnceValue(func() []appTrace { return analyzeApps(seed) }))
	return pass.(func() []appTrace)()
}

// TableIRow characterizes one proxy application (paper Table I + the
// §IV prose findings).
type TableIRow struct {
	App        string
	Suite      string
	PaperRanks int
	Ranks      int // scale this reproduction generated at
	SrcWild    bool
	TagWild    bool
	Comms      int
	PeersMean  float64
	Tags       int
	TagBits    int
}

// TableI re-derives each application's characteristics from its
// analyzed trace.
func TableI(seed int64) []TableIRow {
	var out []TableIRow
	for _, a := range appPass(seed) {
		s := a.stats
		out = append(out, TableIRow{
			App: a.spec.Name, Suite: a.spec.Suite,
			PaperRanks: a.spec.PaperRanks, Ranks: a.ranks,
			SrcWild: s.SrcWildcardRecvs > 0, TagWild: s.TagWildcardRecvs > 0,
			Comms: s.Communicators, PeersMean: s.PeersPerRank.Mean,
			Tags: s.DistinctTags, TagBits: s.MaxTagBits,
		})
	}
	return out
}

// PrintTableI formats Table I.
func PrintTableI(w io.Writer, rows []TableIRow) {
	header(w, "Table I: exascale proxy application characteristics")
	fmt.Fprintln(w, "app        suite          ranks(paper)  src-wild  tag-wild  comms  peers/rank  tags   tag-bits")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-13s %5d(%5d)  %-8v  %-8v  %5d  %10.1f  %5d  %8d\n",
			r.App, r.Suite, r.Ranks, r.PaperRanks, r.SrcWild, r.TagWild,
			r.Comms, r.PeersMean, r.Tags, r.TagBits)
	}
}

// Fig2Row is one application's queue-depth distribution (Figure 2
// shows the UMQ; the paper omits the PRQ "due to their similarity").
type Fig2Row struct {
	App string
	UMQ stats.Summary
	PRQ stats.Summary
}

// Figure2 reports the reconstructed queue depths of every application.
func Figure2(seed int64) []Fig2Row {
	var out []Fig2Row
	for _, a := range appPass(seed) {
		out = append(out, Fig2Row{App: a.spec.Name, UMQ: a.stats.UMQMax, PRQ: a.stats.PRQMax})
	}
	return out
}

// PrintFigure2 formats the Figure 2 distributions.
func PrintFigure2(w io.Writer, rows []Fig2Row) {
	header(w, "Figure 2: UMQ depth per rank (max at any matching attempt)")
	fmt.Fprintln(w, "app        umq[min p25 med mean p75 max]            prq[med mean max]")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s [%5.0f %5.0f %5.0f %6.1f %5.0f %5.0f]   [%5.0f %6.1f %5.0f]\n",
			r.App, r.UMQ.Min, r.UMQ.P25, r.UMQ.Median, r.UMQ.Mean, r.UMQ.P75, r.UMQ.Max,
			r.PRQ.Median, r.PRQ.Mean, r.PRQ.Max)
	}
}

// Fig6aRow is one application's tuple-uniqueness measurement.
type Fig6aRow struct {
	App string
	// MeanSharePct / MaxSharePct: the share of the most common
	// {src,tag} tuple among messages to a destination, averaged (and
	// maxed) over destinations, in percent. Low = hash-friendly.
	MeanSharePct float64
	MaxSharePct  float64
}

// Figure6a measures tuple uniqueness for every application.
func Figure6a(seed int64) []Fig6aRow {
	var out []Fig6aRow
	for _, a := range appPass(seed) {
		out = append(out, Fig6aRow{
			App:          a.spec.Name,
			MeanSharePct: 100 * a.stats.TupleUniqueness.Mean,
			MaxSharePct:  100 * a.stats.TupleUniqueness.Max,
		})
	}
	return out
}

// PrintFigure6a formats the Figure 6a series.
func PrintFigure6a(w io.Writer, rows []Fig6aRow) {
	header(w, "Figure 6a: {src,tag} tuple uniqueness (share of most common tuple per destination)")
	fmt.Fprintln(w, "app        mean-share  max-share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.2f%%  %8.2f%%\n", r.App, r.MeanSharePct, r.MaxSharePct)
	}
}

// AppSizeRow reports each application's payload-size profile and the
// eager/rendezvous protocol mix it would induce (§II-B) — trace data
// the paper's matching-only evaluation leaves unused.
type AppSizeRow struct {
	App         string
	MedianBytes float64
	MaxBytes    float64
	EagerPct    float64
}

// AppSizes derives the per-application protocol mix.
func AppSizes(seed int64) []AppSizeRow {
	var out []AppSizeRow
	for _, a := range appPass(seed) {
		out = append(out, AppSizeRow{
			App:         a.spec.Name,
			MedianBytes: a.stats.MsgBytes.Median,
			MaxBytes:    a.stats.MsgBytes.Max,
			EagerPct:    100 * a.stats.EagerFraction,
		})
	}
	return out
}

// PrintAppSizes formats the protocol-mix table.
func PrintAppSizes(w io.Writer, rows []AppSizeRow) {
	header(w, "Application payload sizes and eager/rendezvous mix (8 KiB threshold)")
	fmt.Fprintln(w, "app        median-bytes  max-bytes   eager")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.0f  %9.0f  %5.1f%%\n", r.App, r.MedianBytes, r.MaxBytes, r.EagerPct)
	}
}
