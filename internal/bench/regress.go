// Benchmark regression tracking: one runner that executes the paper's
// headline benchmarks (Figures 4, 5, 6b and Table II) plus host-side
// micro-benchmarks of the three GPU engines, emits a dated JSON
// baseline, and compares a fresh run against the last committed
// baseline with a configurable tolerance. cmd/matchbench exposes it as
// -regress; CI runs it on every push so simulated-rate or allocation
// regressions fail the build instead of landing silently.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"simtmp/internal/arch"
	"simtmp/internal/match"
	"simtmp/internal/workload"
)

// Record kinds. Sim records are deterministic simulated metrics
// (matching rates in M matches/s): any drift beyond tolerance is a
// model change and fails the comparison. Alloc records are host
// allocations per operation: exact, any increase fails. Wall records
// are host wall-clock (ns/op, sweep speedups): machine-dependent, so
// they are tracked in every baseline but only compared when the caller
// opts in.
const (
	KindSim   = "sim"
	KindWall  = "wall"
	KindAlloc = "alloc"
)

// BenchRecord is one tracked benchmark metric.
type BenchRecord struct {
	Name           string  `json:"name"`
	Kind           string  `json:"kind"`
	Value          float64 `json:"value"`
	Unit           string  `json:"unit"`
	HigherIsBetter bool    `json:"higher_is_better"`
}

// BenchReport is one full regression run: every tracked record plus
// the host context the wall-clock numbers were measured under and a
// fingerprint of the binary that produced it (the beads protocol's
// fresh-binary requirement: a baseline must say which code measured
// it, so stale-binary numbers cannot masquerade as current ones).
type BenchReport struct {
	Date       string        `json:"date"`
	GoMaxProcs int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version,omitempty"`
	Revision   string        `json:"vcs_revision,omitempty"`
	Dirty      bool          `json:"vcs_dirty,omitempty"`
	Records    []BenchRecord `json:"records"`
}

// fingerprint fills the binary identity from build info. Binaries built
// without VCS stamping (go test, plain go build in a non-repo) get the
// Go version only.
func (r *BenchReport) fingerprint() {
	r.GoVersion = runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			r.Revision = s.Value
		case "vcs.modified":
			r.Dirty = s.Value == "true"
		}
	}
}

// RunRegress executes the tracked benchmark suite and returns the
// report. workers bounds the host fan-out of the figure sweeps
// (0 = GOMAXPROCS); the sequential reference timings always run with
// one worker, so the speedup records measure workers against it.
func RunRegress(workers int) BenchReport {
	return RunRegressOpt(workers, false)
}

// RunRegressOpt is RunRegress with the persistent-channel
// gate-validation hook: persistNoCache disables the seal cache for the
// persist/* profiles, which must fail a comparison against a blessed
// baseline (hit rate and re-fire speedup collapse).
func RunRegressOpt(workers int, persistNoCache bool) BenchReport {
	rep := BenchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	rep.fingerprint()
	add := func(recs ...BenchRecord) { rep.Records = append(rep.Records, recs...) }

	// Simulated rates: every figure point and Table II row. These are
	// deterministic, so the comparison tolerance only absorbs deliberate
	// model retuning, not run-to-run noise.
	for _, p := range Figure4Workers(workers) {
		add(simRecord(fmt.Sprintf("fig4/%s/len%d", p.Arch, p.QueueLen), p.RateM))
	}

	seqSec := timed(func() { Figure5Workers(1) })
	var fig5 []Fig5Point
	parSec := timed(func() { fig5 = Figure5Workers(workers) })
	for _, p := range fig5 {
		add(simRecord(fmt.Sprintf("fig5/q%d/len%d", p.Queues, p.TotalLen), p.RateM))
	}
	add(speedupRecord("speedup/fig5_sweep", seqSec, parSec))

	seqSec = timed(func() { Figure6bWorkers(1) })
	var fig6b []Fig6bPoint
	parSec = timed(func() { fig6b = Figure6bWorkers(workers) })
	for _, p := range fig6b {
		add(simRecord(fmt.Sprintf("fig6b/%s/cta%d/n%d", p.Arch, p.CTAs, p.Elements), p.RateM))
	}
	add(speedupRecord("speedup/fig6b_sweep", seqSec, parSec))

	for _, r := range TableII() {
		add(simRecord(fmt.Sprintf("table2/%s/wild%v/ord%v/unexp%v",
			r.DataStructure, r.Wildcards, r.Ordering, r.Unexpected), r.RateM))
	}

	// MPIX Stream relaxation: per-stream-count rates plus the gated
	// 8-stream speedup over the full-MPI matrix on identical input.
	add(StreamScalingRecords(StreamScaling())...)

	// Host micro-benchmarks: steady-state MatchInto on each engine.
	// ns/op is machine-dependent (wall); allocs/op is the zero-alloc
	// contract and must stay exactly zero.
	add(hostBenchmarks()...)

	// Open-loop soak SLOs: deterministic latency quantiles under load.
	// An error here is a driver or model bug, not a measurement failure
	// — same contract as the host-benchmark warmup above.
	soaks, err := RunSoak(workers, 0, 0, false)
	if err != nil {
		panic(fmt.Sprintf("bench: regress soak: %v", err))
	}
	add(SoakRecords(soaks, 1)...)

	// Persistent-channel profiles: the seal cache's re-fire speedup,
	// hit rate and zero-alloc contract (DESIGN.md §15).
	persists, err := RunPersistProfiles(persistNoCache)
	if err != nil {
		panic(fmt.Sprintf("bench: regress persist: %v", err))
	}
	add(PersistRecords(persists)...)
	return rep
}

func simRecord(name string, rateM float64) BenchRecord {
	return BenchRecord{Name: name, Kind: KindSim, Value: rateM, Unit: "Mmatches/s", HigherIsBetter: true}
}

func speedupRecord(name string, seqSec, parSec float64) BenchRecord {
	v := 0.0
	if parSec > 0 {
		v = seqSec / parSec
	}
	return BenchRecord{Name: name, Kind: KindWall, Value: v, Unit: "x", HigherIsBetter: true}
}

func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// hostBenchmarks measures steady-state MatchInto wall time and
// allocations for the three GPU engines via testing.Benchmark.
func hostBenchmarks() []BenchRecord {
	a := arch.PascalGTX1080()
	fullMsgs, fullReqs := workload.FullyMatching(256, 1)
	partMsgs, partReqs := workload.Generate(workload.Config{N: 1024, Peers: 64, Tags: 32, Seed: 1})
	uniqMsgs, uniqReqs := workload.UniqueTuples(1024, 1)

	var out []BenchRecord
	type cse struct {
		name string
		run  func(res *match.Result) error
	}
	var cases []cse
	{
		m := match.NewMatrixMatcher(match.MatrixConfig{Arch: a})
		cases = append(cases, cse{"matrix_n256", func(res *match.Result) error {
			return m.MatchInto(res, fullMsgs, fullReqs)
		}})
	}
	{
		m := match.NewPartitionedMatcher(match.PartitionedConfig{Arch: a, Queues: 8, MaxCTAs: 1})
		cases = append(cases, cse{"partitioned_q8_n1024", func(res *match.Result) error {
			return m.MatchInto(res, partMsgs, partReqs)
		}})
	}
	{
		m := match.MustHashMatcher(match.HashConfig{Arch: a, CTAs: 4})
		cases = append(cases, cse{"hash_cta4_n1024", func(res *match.Result) error {
			return m.MatchInto(res, uniqMsgs, uniqReqs)
		}})
	}

	for _, c := range cases {
		var res match.Result
		if err := c.run(&res); err != nil { // warm scratch to steady state
			panic(fmt.Sprintf("bench: regress warmup %s: %v", c.name, err))
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(&res); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out,
			BenchRecord{Name: "host/" + c.name + "/ns_op", Kind: KindWall,
				Value: float64(r.NsPerOp()), Unit: "ns/op"},
			BenchRecord{Name: "host/" + c.name + "/allocs_op", Kind: KindAlloc,
				Value: float64(r.AllocsPerOp()), Unit: "allocs/op"},
		)
	}
	return out
}

// Regression is one record that got worse than the baseline allows.
type Regression struct {
	Name    string
	Kind    string
	Base    float64
	Cur     float64
	Missing bool // record present in the baseline but absent from the run
}

// String renders the regression for diagnostics.
func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s (%s): present in baseline (%.4g) but missing from this run", r.Name, r.Kind, r.Base)
	}
	return fmt.Sprintf("%s (%s): baseline %.4g, now %.4g", r.Name, r.Kind, r.Base, r.Cur)
}

// Compare checks a fresh run against a baseline. Sim records fail when
// they worsen by more than tol (relative); alloc records fail on any
// increase; wall records are skipped unless includeWall is set (then
// they use the same tolerance). Records the baseline has but the run
// lacks are reported as regressions too — a benchmark silently
// disappearing must not read as a pass.
func Compare(base, cur BenchReport, tol float64, includeWall bool) []Regression {
	byName := make(map[string]BenchRecord, len(cur.Records))
	for _, r := range cur.Records {
		byName[r.Name] = r
	}
	var regs []Regression
	for _, b := range base.Records {
		if b.Kind == KindWall && !includeWall {
			continue
		}
		c, ok := byName[b.Name]
		if !ok {
			regs = append(regs, Regression{Name: b.Name, Kind: b.Kind, Base: b.Value, Cur: math.NaN(), Missing: true})
			continue
		}
		switch b.Kind {
		case KindAlloc:
			if c.Value > b.Value {
				regs = append(regs, Regression{Name: b.Name, Kind: b.Kind, Base: b.Value, Cur: c.Value})
			}
		default:
			if worsening(b, c.Value) > tol {
				regs = append(regs, Regression{Name: b.Name, Kind: b.Kind, Base: b.Value, Cur: c.Value})
			}
		}
	}
	return regs
}

// worsening returns the relative change of cur against base in the
// record's "worse" direction (positive = worse).
func worsening(base BenchRecord, cur float64) float64 {
	if base.Value == 0 {
		if cur == base.Value {
			return 0
		}
		if base.HigherIsBetter && cur > 0 {
			return 0
		}
		return 1
	}
	d := (cur - base.Value) / math.Abs(base.Value)
	if base.HigherIsBetter {
		return -d
	}
	return d
}

// WriteBaseline writes the report as BENCH_<date>.json in dir and
// returns the path. An existing same-day baseline is overwritten.
func WriteBaseline(dir string, rep BenchReport) (string, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: marshal baseline: %w", err)
	}
	path := filepath.Join(dir, "BENCH_"+rep.Date+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write baseline: %w", err)
	}
	return path, nil
}

// LoadLatestBaseline loads the lexicographically latest BENCH_*.json
// in dir (the date format sorts chronologically). It returns
// os.ErrNotExist (wrapped) when no baseline exists.
func LoadLatestBaseline(dir string) (BenchReport, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return BenchReport{}, "", fmt.Errorf("bench: scan baselines: %w", err)
	}
	if len(matches) == 0 {
		return BenchReport{}, "", fmt.Errorf("bench: no BENCH_*.json baseline in %s: %w", dir, os.ErrNotExist)
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchReport{}, "", fmt.Errorf("bench: read baseline: %w", err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return BenchReport{}, "", fmt.Errorf("bench: parse baseline %s: %w", path, err)
	}
	return rep, path, nil
}

// PrintRegress renders the comparison outcome.
func PrintRegress(w io.Writer, cur BenchReport, basePath string, tol float64, regs []Regression) {
	fmt.Fprintf(w, "regress: %d records vs baseline %s (tolerance %.0f%%)\n",
		len(cur.Records), basePath, tol*100)
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION: %s\n", r)
	}
	if len(regs) == 0 {
		fmt.Fprintln(w, "regress: ok")
	}
}
