// Command matchbench regenerates the paper's matching-rate figures and
// tables on the simulated GPUs: Figure 4 (MPI-compliant matrix),
// Figure 5 (rank-partitioned), Figure 6b (hash table), Table II (the
// relaxation summary), the ablation and extension studies, and the CPU
// matcher reference measured in real wall-clock. The formatted output
// of -fig4, -fig5, -fig6b and -table2 follows each table with a bar
// chart of its shape; pass -csv for machine-readable rows instead.
// Together with `tracestat -all` (the §IV trace analysis), `-all` is
// the complete reproduction report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"simtmp/internal/bench"
	"simtmp/internal/conformance"
	"simtmp/internal/mpx"
	"simtmp/internal/telemetry"
)

// run is the testable entry point: it parses args (without the program
// name), writes results to stdout and diagnostics to stderr, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("matchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csvOut := fs.Bool("csv", false, "emit CSV instead of formatted tables")
	all := fs.Bool("all", false, "run everything")
	regress := fs.Bool("regress", false, "run the benchmark regression suite and compare it exactly against the latest BENCH_*.json baseline")
	regressDir := fs.String("regress.dir", ".", "directory holding BENCH_*.json baselines")
	regressWrite := fs.Bool("regress.write", false, "write a fresh BENCH_<date>.json baseline after the -regress run")
	soakRun := fs.Bool("soak", false, "run the open-loop traffic soak profiles (per-message latency SLOs)")
	soakSeed := fs.Int64("soak.seed", 0, "with -soak: override the base seed (0 = the tracked default)")
	soakMessages := fs.Int("soak.messages", 0, "with -soak: per-seed message count (0 = the tracked default)")
	soakUncap := fs.Bool("soak.uncap", false, "with -soak or -regress: strip the overload profiles' queue caps (gate-validation hook; a capped baseline must fail)")
	persistent := fs.Bool("persistent", false, "run the persistent-channel sweep (first-iteration cost, steady-state re-fire rate, cache hit rate)")
	persistNoCache := fs.Bool("persist.nocache", false, "with -persistent or -regress: disable the seal cache (gate-validation hook; a cached baseline must fail)")
	var trace telemetry.CLIFlags
	trace.Register(fs)

	sections := bench.SectionFlags(fs, "matchbench")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *regress {
		return runRegress(stdout, stderr, *regressDir, *regressWrite, *soakUncap, *persistNoCache)
	}
	if *persistent {
		return runPersistent(stdout, stderr, *csvOut, *persistNoCache)
	}
	if *soakRun {
		return runSoak(stdout, stderr, *csvOut, *soakSeed, *soakMessages, *soakUncap)
	}
	if trace.Active() {
		return trace.Run(stdout, stderr, "matchbench", func(cfg telemetry.Config) (*telemetry.Recorder, error) {
			return runChaosTrace(trace.Seed, cfg)
		})
	}

	selected := sections(*all)
	if len(selected) == 0 {
		fs.Usage()
		return 2
	}
	if err := bench.WriteSections(stdout, selected, bench.ReportSeed, *csvOut); err != nil {
		fmt.Fprintln(stderr, "matchbench:", err)
		return 1
	}
	return 0
}

// runRegress executes the benchmark regression suite, compares it
// exactly against the latest committed baseline in dir, and optionally
// writes the run as the new baseline. Exit codes: 0 clean, 1 on any
// changed, missing or new record (or a missing baseline without
// -regress.write), 2 when asked to bless a gate-validation run or to
// write a baseline from a binary without a VCS stamp.
func runRegress(stdout, stderr io.Writer, dir string, write, soakUncap, persistNoCache bool) int {
	if write && (soakUncap || persistNoCache) {
		fmt.Fprintln(stderr, "matchbench: refusing to bless a gate-validation run as a baseline; drop -soak.uncap and -persist.nocache")
		return 2
	}
	if write && bench.BuildSetting("vcs.revision") == "" {
		fmt.Fprintln(stderr, "matchbench: refusing to write a baseline from a binary without a vcs.revision stamp "+
			"(go run and go test do not stamp one); build it first: go build -o /tmp/matchbench ./cmd/matchbench && /tmp/matchbench -regress -regress.write")
		return 2
	}
	rep := bench.RunRegress(soakUncap, persistNoCache)
	base, path, err := bench.LoadLatestBaseline(dir)
	if errors.Is(err, os.ErrNotExist) {
		if !write {
			fmt.Fprintf(stderr, "matchbench: no BENCH_*.json baseline in %s (rerun with -regress.write to create one)\n", dir)
			return 1
		}
		p, werr := bench.WriteBaseline(dir, rep)
		if werr != nil {
			fmt.Fprintln(stderr, "matchbench:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "regress: wrote first baseline %s (%d records)\n", p, len(rep.Records))
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "matchbench:", err)
		return 1
	}
	regs := bench.Compare(base, rep)
	bench.PrintRegress(stdout, rep, path, regs)
	if write {
		p, werr := bench.WriteBaseline(dir, rep)
		if werr != nil {
			fmt.Fprintln(stderr, "matchbench:", werr)
			return 1
		}
		fmt.Fprintf(stdout, "regress: wrote baseline %s\n", p)
	}
	if len(regs) > 0 {
		return 1
	}
	return 0
}

// runPersistent executes the persistent-channel iteration sweep — the
// -persistent mode: per iteration count, the first-iteration
// (full-engine match + seal) cost, the steady-state O(1) re-fire rate,
// the cache hit rate and the speedup over matching every iteration.
func runPersistent(stdout, stderr io.Writer, csv, nocache bool) int {
	rows, err := bench.PersistSweep(nocache)
	if err != nil {
		fmt.Fprintln(stderr, "matchbench:", err)
		return 1
	}
	if csv {
		if err := bench.WriteCSV(stdout, rows); err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 1
		}
		return 0
	}
	bench.PrintPersistSweep(stdout, rows)
	return 0
}

// runSoak executes the tracked open-loop soak profiles and prints
// their latency SLOs (-csv: every soak/* record). -regress gates the
// same records against the baseline. Exit codes: 0 clean, 1 on a
// tripped cross-seed spread budget or run failure.
func runSoak(stdout, stderr io.Writer, csv bool, seed int64, messages int, uncap bool) int {
	results, err := bench.RunSoak(messages, seed, uncap)
	if err != nil {
		fmt.Fprintln(stderr, "matchbench:", err)
		return 1
	}

	if csv {
		if err := bench.WriteCSV(stdout, bench.SoakRecords(results)); err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 1
		}
	} else {
		for _, r := range results {
			s := r.Suite
			fmt.Fprintf(stdout, "soak/%-7s p50 %8.2fus  p99 %8.2fus  p99.9 %8.2fus  PRQ peak %5d  UMQ peak %3d  spread %5.1f%%\n",
				r.Profile, s.P50, s.P99, s.P999, s.PRQPeak, s.UMQPeak, 100*s.Spread)
		}
	}

	// The stability budgets are calibrated at the tracked profile size,
	// so only a default-configuration run is held to them; smoke runs
	// with -soak.seed/-soak.messages just report their spread.
	code := 0
	if seed == 0 && messages == 0 {
		for _, r := range results {
			if !r.Suite.SpreadOK {
				fmt.Fprintf(stderr, "matchbench: soak profile %s cross-seed spread %.1f%% exceeds its stability budget\n",
					r.Profile, 100*r.Suite.Spread)
				code = 1
			}
		}
	}
	return code
}

// runChaosTrace replays seeded chaos workloads (FullMPI semantics,
// ChaosMix faults) and returns the flight recorder of the first one
// whose run retransmitted, so the exported trace shows the full
// fault → retransmit → match-pass chain on one simulated-time axis.
// The scan is deterministic per seed; the same seed always returns the
// same workload's byte-identical trace.
//
// tcfg parameterizes the recorder (the zero value selects defaults;
// Enabled is forced on). A tcfg.Stream writer receives the chosen
// workload's trace live: the scan itself runs without telemetry, and
// only the chosen workload is then replayed under tcfg, so the
// streamed bytes cover exactly the workload the recorder holds.
func runChaosTrace(seed int64, tcfg telemetry.Config) (*telemetry.Recorder, error) {
	pick := 0
	for i := 0; i < 64; i++ {
		st, _, err := conformance.ChaosWorkload(mpx.FullMPI, seed, i, conformance.ChaosMix())
		if err != nil {
			return nil, err
		}
		if st.Retries > 0 {
			pick = i
			break
		}
	}
	_, _, rec, err := conformance.ChaosWorkloadTraced(mpx.FullMPI, seed, pick, conformance.ChaosMix(), tcfg)
	return rec, err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
