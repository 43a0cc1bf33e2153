// Benchmark regression tracking: one runner that collects the records
// of every report section that has them (the §IV tables, Figures 4, 5,
// 6b, Table II and the stream scaling) plus the soak and
// persistent-channel profiles, emits a dated JSON baseline of
// deterministic simulated records, and compares a fresh run against the
// last committed baseline exactly. cmd/matchbench exposes it as
// -regress; CI runs it on every push so any drift of the simulated
// model fails the build instead of landing silently.
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
	"strconv"
	"time"
)

// BenchRecord is one tracked simulated metric. Every record is a
// deterministic function of the model, so a comparison against the
// baseline is exact: any change in value is a model change.
type BenchRecord struct {
	Name           string  `json:"name"`
	Value          float64 `json:"value"`
	Unit           string  `json:"unit"`
	HigherIsBetter bool    `json:"higher_is_better"`
}

// BenchReport is one full regression run: every tracked record plus a
// fingerprint of the binary that produced it (the beads protocol's
// fresh-binary requirement: a baseline must say which code measured
// it, so stale-binary numbers cannot masquerade as current ones).
type BenchReport struct {
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version,omitempty"`
	Revision  string        `json:"vcs_revision,omitempty"`
	Dirty     bool          `json:"vcs_dirty,omitempty"`
	Records   []BenchRecord `json:"records"`
}

// fingerprint fills the binary identity from build info. Binaries built
// without VCS stamping (go test, plain go build in a non-repo) get the
// Go version only.
func (r *BenchReport) fingerprint() {
	r.GoVersion = runtime.Version()
	r.Revision = BuildSetting("vcs.revision")
	r.Dirty = BuildSetting("vcs.modified") == "true"
}

// BuildSetting returns the binary's build setting key, or "" when the
// binary does not carry it.
func BuildSetting(key string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == key {
				return s.Value
			}
		}
	}
	return ""
}

// RunRegress executes the tracked benchmark suite and returns the
// report. soakUncap and persistNoCache are the gate-validation hooks:
// they strip the overload profiles' queue caps and disable the seal
// cache, and either must fail a comparison against a blessed baseline.
// Both are false in every real run.
func RunRegress(soakUncap, persistNoCache bool) BenchReport {
	rep := BenchReport{Date: time.Now().UTC().Format("2006-01-02")}
	rep.fingerprint()
	add := func(recs ...BenchRecord) { rep.Records = append(rep.Records, recs...) }

	// Every report section with records: the §IV tables, each figure
	// point and Table II row, and the MPIX stream scaling.
	for _, s := range Sections() {
		if s.Records != nil {
			add(s.Records()...)
		}
	}

	// Open-loop soak SLOs: deterministic latency quantiles under load.
	// An error here is a driver or model bug, not a measurement failure.
	soaks, err := RunSoak(0, 0, soakUncap)
	if err != nil {
		panic(fmt.Sprintf("bench: regress soak: %v", err))
	}
	add(SoakRecords(soaks)...)

	// Persistent-channel profiles: the seal cache's re-fire speedup and
	// hit rate (DESIGN.md §15).
	persists, err := RunPersistProfiles(persistNoCache)
	if err != nil {
		panic(fmt.Sprintf("bench: regress persist: %v", err))
	}
	add(PersistRecords(persists)...)
	return rep
}

func simRecord(name string, rateM float64) BenchRecord {
	return BenchRecord{Name: name, Value: rateM, Unit: "Mmatches/s", HigherIsBetter: true}
}

// Regression is one record whose value is not bit-equal to the
// baseline, or that only one side of the comparison has.
type Regression struct {
	Name           string
	Base           float64
	Cur            float64
	HigherIsBetter bool
	Missing        bool // present in the baseline but absent from the run
	Extra          bool // emitted by the run but absent from the baseline
}

// String renders the regression at full precision, so a 1-ulp drift
// prints two different numbers, labelled better or worse.
func (r Regression) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch {
	case r.Missing:
		return fmt.Sprintf("%s: present in baseline (%s) but missing from this run", r.Name, f(r.Base))
	case r.Extra:
		return fmt.Sprintf("%s: new in this run (%s) but missing from the baseline", r.Name, f(r.Cur))
	}
	label := "worse"
	if (r.Cur > r.Base) == r.HigherIsBetter {
		label = "better"
	}
	return fmt.Sprintf("%s: baseline %s, now %s (%s)", r.Name, f(r.Base), f(r.Cur), label)
}

// Compare checks a fresh run against a baseline. Every record is
// deterministic, so the rule is exact: a record whose value is not
// bit-equal to the baseline's fails in either direction, and so does a
// record that only one side has — a benchmark silently disappearing
// must not read as a pass, and a new one must be blessed.
func Compare(base, cur BenchReport) []Regression {
	byName := make(map[string]BenchRecord, len(cur.Records))
	for _, r := range cur.Records {
		byName[r.Name] = r
	}
	inBase := make(map[string]bool, len(base.Records))
	var regs []Regression
	for _, b := range base.Records {
		inBase[b.Name] = true
		c, ok := byName[b.Name]
		switch {
		case !ok:
			regs = append(regs, Regression{Name: b.Name, Base: b.Value, Cur: math.NaN(), Missing: true})
		case math.Float64bits(c.Value) != math.Float64bits(b.Value):
			regs = append(regs, Regression{Name: b.Name, Base: b.Value, Cur: c.Value, HigherIsBetter: b.HigherIsBetter})
		}
	}
	for _, c := range cur.Records {
		if !inBase[c.Name] {
			regs = append(regs, Regression{Name: c.Name, Base: math.NaN(), Cur: c.Value, Extra: true})
		}
	}
	return regs
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
func PrintRegress(w io.Writer, cur BenchReport, basePath string, regs []Regression) {
	fmt.Fprintf(w, "regress: %d records vs baseline %s (exact)\n", len(cur.Records), basePath)
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION: %s\n", r)
	}
	if len(regs) == 0 {
		fmt.Fprintln(w, "regress: ok")
		return
	}
	fmt.Fprintf(w, "regress: %d records differ; a deliberate model change regenerates the baseline with -regress.write\n", len(regs))
}
