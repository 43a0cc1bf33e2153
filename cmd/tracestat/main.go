// Command tracestat regenerates the paper's application analysis
// (§IV): Table I (communication characteristics), Figure 2 (queue
// depth distributions), Figure 6a (tuple uniqueness) and the per-app
// payload sizes, all derived from synthetic proxy-application traces
// through the same queue reconstruction the paper applied to the DOE
// DUMPI traces. It can also dump a generated trace to a file and
// analyze an existing one.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"simtmp/internal/apps"
	"simtmp/internal/bench"
	"simtmp/internal/trace"
)

// analysis is one trace analysis, run on the traces of one seed.
type analysis struct {
	flagName string
	help     string
	run      func(w io.Writer, seed int64)
}

// analyses lists every trace analysis in report order.
func analyses() []analysis {
	return []analysis{
		{"table1", "Table I: application characteristics", func(w io.Writer, seed int64) {
			bench.PrintTableI(w, bench.TableI(seed))
		}},
		{"fig2", "Figure 2: UMQ/PRQ depth distributions", func(w io.Writer, seed int64) {
			bench.PrintFigure2(w, bench.Figure2(seed))
		}},
		{"fig6a", "Figure 6a: tuple uniqueness", func(w io.Writer, seed int64) {
			bench.PrintFigure6a(w, bench.Figure6a(seed))
		}},
		{"sizes", "per-app payload sizes and protocol mix", func(w io.Writer, seed int64) {
			bench.PrintAppSizes(w, bench.AppSizes(seed))
		}},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
}

// run executes the CLI against the given arguments and output stream;
// main is a thin shell so tests can drive the whole surface.
func run(args []string, w io.Writer) error {
	flag := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	var (
		all     = flag.Bool("all", false, "run all analyses")
		seed    = flag.Int64("seed", 1, "generation seed")
		dump    = flag.String("dump", "", "generate the trace of -app and write it to this file")
		app     = flag.String("app", "LULESH", "application for -dump (one of: "+fmt.Sprint(apps.Names())+")")
		ranks   = flag.Int("ranks", 0, "rank count for -dump (0 = app default)")
		analyze = flag.String("analyze", "", "analyze a trace file instead of generating")
	)
	as := analyses()
	enabled := make([]*bool, len(as))
	for i, a := range as {
		enabled[i] = flag.Bool(a.flagName, false, a.help)
	}
	if err := flag.Parse(args); err != nil {
		return err
	}

	if *analyze != "" {
		f, err := os.Open(*analyze)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.Parse(f)
		if err != nil {
			return err
		}
		printStats(w, tr)
		return nil
	}
	if *dump != "" {
		m, err := apps.ByName(*app)
		if err != nil {
			return err
		}
		tr := m.Generate(*ranks, *seed)
		f, err := os.Create(*dump)
		if err != nil {
			return err
		}
		if _, err := tr.WriteTo(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s trace (%d ranks, %d events) to %s\n", *app, tr.Ranks, len(tr.Events), *dump)
		return nil
	}

	ran := false
	for i, a := range as {
		if *enabled[i] || *all {
			a.run(w, *seed)
			fmt.Fprintln(w)
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("no analysis selected (try -all)")
	}
	return nil
}

func printStats(w io.Writer, tr *trace.Trace) {
	s := trace.Analyze(tr)
	fmt.Fprintf(w, "app %s: %d ranks, %d sends, %d recvs\n", s.App, s.Ranks, s.Sends, s.Recvs)
	fmt.Fprintf(w, "wildcards: src=%d tag=%d; communicators=%d\n", s.SrcWildcardRecvs, s.TagWildcardRecvs, s.Communicators)
	fmt.Fprintf(w, "peers/rank: %v\n", s.PeersPerRank)
	fmt.Fprintf(w, "tags: %d distinct, %d bits\n", s.DistinctTags, s.MaxTagBits)
	fmt.Fprintf(w, "UMQ max/rank: %v\n", s.UMQMax)
	fmt.Fprintf(w, "PRQ max/rank: %v\n", s.PRQMax)
	fmt.Fprintf(w, "unexpected fraction: %.2f\n", s.UnexpectedFraction)
	fmt.Fprintf(w, "tuple uniqueness: mean %.2f%%, max %.2f%%\n", 100*s.TupleUniqueness.Mean, 100*s.TupleUniqueness.Max)
	fmt.Fprintf(w, "payload bytes: %v; eager fraction %.1f%%\n", s.MsgBytes, 100*s.EagerFraction)
}
