package bench

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// ReportSeed is the seed of REPORT.txt and of every -regress record.
const ReportSeed = 1

// HostTimedMarker is the line WriteSections prints before host-timed
// rows; everything above it reproduces byte for byte.
const HostTimedMarker = "==== host-timed rows below: host wall-clock, they differ run to run ===="

// Section is one part of the reproduction report. Sections is the one
// list of them: both commands take their section flags from it, and
// RunRegress its records.
type Section struct {
	Command string // "tracestat" (the §IV trace analysis) or "matchbench"
	Name    string // the flag that selects it
	Help    string
	// HostTimed marks a section with rows timed in host wall-clock:
	// they have no records, and Write prints them to host.
	HostTimed bool
	// Write computes the rows at seed and prints them, or writes them
	// as CSV. A formatted table ends with a blank line.
	Write func(w, host io.Writer, seed int64, csv bool) error
	// Records computes the -regress records at ReportSeed; nil if none.
	Records func() []BenchRecord
}

// Sections lists every report section in report order.
func Sections() []Section {
	return []Section{
		table("tracestat", "table1", "Table I: application characteristics",
			TableI, PrintTableI, rowRecords[TableIRow]("table1", "count")),
		table("tracestat", "fig2", "Figure 2: UMQ/PRQ depth distributions",
			Figure2, PrintFigure2, rowRecords[Fig2Row]("fig2", "msgs")),
		table("tracestat", "fig6a", "Figure 6a: tuple uniqueness",
			Figure6a, PrintFigure6a, rowRecords[Fig6aRow]("fig6a", "%")),
		table("tracestat", "sizes", "per-app payload sizes and protocol mix",
			AppSizes, PrintAppSizes, rowRecords[AppSizeRow]("sizes", "B")),
		table("matchbench", "fig4", "Figure 4: single-CTA matrix matching rate",
			seedless(Figure4), withChart(PrintFigure4, ChartFigure4), each(func(p Fig4Point) BenchRecord {
				return simRecord(fmt.Sprintf("fig4/%s/len%d", p.Arch, p.QueueLen), p.RateM)
			})),
		table("matchbench", "fig5", "Figure 5: rank-partitioned matching rate",
			seedless(Figure5), func(w io.Writer, rows []Fig5Point) {
				withChart(PrintFigure5, ChartFigure5)(w, rows)
				overK, overM := Figure5Speedups()
				fmt.Fprintf(w, "average Pascal speedup: %.2fx over K80 (paper: 2.12x), %.2fx over M40 (paper: 1.56x)\n", overK, overM)
			}, each(func(p Fig5Point) BenchRecord {
				return simRecord(fmt.Sprintf("fig5/q%d/len%d", p.Queues, p.TotalLen), p.RateM)
			})),
		table("matchbench", "fig6b", "Figure 6b: hash-table matching rate",
			seedless(Figure6b), withChart(PrintFigure6b, ChartFigure6b), each(func(p Fig6bPoint) BenchRecord {
				return simRecord(fmt.Sprintf("fig6b/%s/cta%d/n%d", p.Arch, p.CTAs, p.Elements), p.RateM)
			})),
		table("matchbench", "table2", "Table II: relaxation summary",
			seedless(TableII), withChart(PrintTableII, ChartTableII), each(func(r TableIIRow) BenchRecord {
				return simRecord(fmt.Sprintf("table2/%s/wild%v/ord%v/unexp%v", r.DataStructure, r.Wildcards, r.Ordering, r.Unexpected), r.RateM)
			})),
		{Command: "matchbench", Name: "cpu", Help: "CPU matchers: list baseline vs hash bins (host wall-clock)",
			HostTimed: true, Write: func(_, host io.Writer, _ int64, csv bool) error {
				return writeRows(host, CPUReference(), PrintCPUReference, csv)
			}},
		table("matchbench", "applicability", "per-application engine applicability matrix",
			Applicability, PrintApplicability, nil),
		table("matchbench", "stream", "sustained-load dynamics (offered vs delivered)",
			seedless(Streaming), PrintStreaming, nil),
		table("matchbench", "msgsize", "message-size sweep (protocol + bandwidth)",
			seedless(MessageSizes), PrintMessageSizes, nil),
		table("matchbench", "smsweep", "multi-SM scaling of the communication kernel",
			seedless(SMSweep), PrintSMSweep, nil),
		{Command: "matchbench", Name: "endpoints", Help: "CTA-endpoint scaling (the paper's motivation)",
			HostTimed: true, Write: func(w, host io.Writer, _ int64, csv bool) error {
				if err := writeRows(w, Endpoints(), PrintEndpoints, csv); err != nil {
					return err
				}
				return writeRows(host, EndpointsCPU(), PrintEndpoints, csv)
			}},
		table("matchbench", "commparallel", "communicator-level parallelism (§VI top level)",
			seedless(CommParallel), PrintCommParallel, nil),
		table("matchbench", "streams", "MPIX stream scaling: stream-concurrent engine vs full-MPI matrix",
			seedless(StreamScaling), PrintStreamScaling, StreamScalingRecords),
		table("matchbench", "chaos", "chaos conformance: exactly-once delivery under fault injection",
			func(seed int64) []ChaosRow { return Chaos(seed, 250) }, PrintChaos, nil),
		{Command: "matchbench", Name: "ablation", Help: "ablation studies (compaction, fraction, order, hash, wildcards)",
			Write: writeAblations},
	}
}

// SectionFlags registers a flag on fs for each section of command and
// returns, for use once fs is parsed, the sections selected (all of
// them when all is set).
func SectionFlags(fs *flag.FlagSet, command string) func(all bool) []Section {
	on := make(map[string]*bool)
	for _, s := range Sections() {
		if s.Command == command {
			on[s.Name] = fs.Bool(s.Name, false, s.Help)
		}
	}
	return func(all bool) (out []Section) {
		for _, s := range Sections() {
			if s.Command == command && (all || *on[s.Name]) {
				out = append(out, s)
			}
		}
		return out
	}
}

// WriteSections writes secs in order to w, then HostTimedMarker and
// the host-timed rows they printed, if any.
func WriteSections(w io.Writer, secs []Section, seed int64, csv bool) error {
	var host bytes.Buffer
	for _, s := range secs {
		if err := s.Write(w, &host, seed, csv); err != nil {
			return err
		}
	}
	if host.Len() == 0 {
		return nil
	}
	_, err := fmt.Fprintf(w, "%s\n%s", HostTimedMarker, host.Bytes())
	return err
}

// table is a section of deterministic rows, computed once per Write.
func table[T any](command, name, help string, rows func(seed int64) []T, print func(io.Writer, []T), records func([]T) []BenchRecord) Section {
	s := Section{Command: command, Name: name, Help: help,
		Write: func(w, _ io.Writer, seed int64, csv bool) error { return writeRows(w, rows(seed), print, csv) }}
	if records != nil {
		s.Records = func() []BenchRecord { return records(rows(ReportSeed)) }
	}
	return s
}

func seedless[T any](rows func() []T) func(int64) []T {
	return func(int64) []T { return rows() }
}

// each records one value per row.
func each[T any](record func(T) BenchRecord) func([]T) []BenchRecord {
	return func(rows []T) (out []BenchRecord) {
		for _, r := range rows {
			out = append(out, record(r))
		}
		return out
	}
}

// writeRows writes rows as CSV, or prints them and a blank line.
func writeRows[T any](w io.Writer, rows []T, print func(io.Writer, []T), csv bool) error {
	if csv {
		return WriteCSV(w, rows)
	}
	print(w, rows)
	_, err := fmt.Fprintln(w)
	return err
}

// withChart follows a section's table with its bar chart.
func withChart[T any](print, chart func(io.Writer, []T)) func(io.Writer, []T) {
	return func(w io.Writer, rows []T) {
		print(w, rows)
		fmt.Fprintln(w)
		chart(w, rows)
	}
}

func writeAblations(w, _ io.Writer, _ int64, csv bool) error {
	if !csv {
		PrintAblations(w)
		_, err := fmt.Fprintln(w)
		return err
	}
	for _, rows := range []any{AblationCompaction(), AblationMatchFraction(), OrderSensitivity(), HashAblation(), AblationWildcardHash()} {
		if err := WriteCSV(w, rows); err != nil {
			return err
		}
	}
	return nil
}

// rowRecords records every number a §IV table prints, as
// <prefix>/<App>/<column>: columns named and stats.Summary fields
// expanded as in WriteCSV, booleans as 0 or 1. Columns ending in Pct
// are in percent, the rest in unit.
func rowRecords[T any](prefix, unit string) func([]T) []BenchRecord {
	return func(rows []T) (out []BenchRecord) {
		for _, r := range rows {
			v := reflect.ValueOf(r)
			app := v.FieldByName("App").String()
			walkFields(v, func(name string, f reflect.Value) {
				rec := BenchRecord{Name: prefix + "/" + app + "/" + name, Unit: unit}
				switch {
				case f.CanFloat():
					rec.Value = f.Float()
				case f.CanInt():
					rec.Value = float64(f.Int())
				case f.Kind() == reflect.Bool:
					if f.Bool() {
						rec.Value = 1
					}
				default: // the App and Suite labels
					return
				}
				if strings.HasSuffix(name, "Pct") {
					rec.Unit = "%"
				}
				out = append(out, rec)
			})
		}
		return out
	}
}
