package bench

import (
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

func rec(name string, v float64, higher bool) BenchRecord {
	return BenchRecord{Name: name, Value: v, HigherIsBetter: higher}
}

// TestCompare covers the exact comparison rules: any change in value
// fails in either direction, down to one ulp, and a record that only
// the baseline or only the run has fails too.
func TestCompare(t *testing.T) {
	base := BenchReport{Records: []BenchRecord{
		rec("rate/a", 100, true),
		rec("lat/b", 2.5, false),
	}}
	names := func(regs []Regression) string {
		var s []string
		for _, r := range regs {
			s = append(s, r.Name)
		}
		return strings.Join(s, ",")
	}

	t.Run("clean", func(t *testing.T) {
		cur := BenchReport{Records: []BenchRecord{rec("lat/b", 2.5, false), rec("rate/a", 100, true)}}
		if regs := Compare(base, cur); len(regs) != 0 {
			t.Errorf("Compare = %v, want none", regs)
		}
	})

	for _, tc := range []struct {
		name, label string
		a, b        float64
	}{
		{"one ulp up fails", "better", math.Nextafter(100, 200), math.Nextafter(2.5, 5)},
		{"one ulp down fails", "worse", math.Nextafter(100, 0), math.Nextafter(2.5, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := BenchReport{Records: []BenchRecord{rec("rate/a", tc.a, true), rec("lat/b", tc.b, false)}}
			regs := Compare(base, cur)
			if names(regs) != "rate/a,lat/b" {
				t.Fatalf("Compare = %v, want rate/a and lat/b", regs)
			}
			// rate/a is higher-is-better and lat/b lower-is-better, so the
			// same direction of drift earns opposite labels. Full precision
			// keeps the two numbers of a 1-ulp change apart.
			other := map[string]string{"better": "worse", "worse": "better"}[tc.label]
			want := []string{
				"rate/a: baseline 100, now " + strconv.FormatFloat(tc.a, 'g', -1, 64) + " (" + tc.label + ")",
				"lat/b: baseline 2.5, now " + strconv.FormatFloat(tc.b, 'g', -1, 64) + " (" + other + ")",
			}
			for i, r := range regs {
				if r.String() != want[i] {
					t.Errorf("String() = %q, want %q", r.String(), want[i])
				}
			}
		})
	}

	t.Run("missing record fails", func(t *testing.T) {
		cur := BenchReport{Records: []BenchRecord{rec("rate/a", 100, true)}}
		regs := Compare(base, cur)
		if len(regs) != 1 || regs[0].Name != "lat/b" || !regs[0].Missing {
			t.Errorf("Compare = %v, want lat/b missing", regs)
		}
	})

	t.Run("extra record fails", func(t *testing.T) {
		cur := BenchReport{Records: append(append([]BenchRecord{}, base.Records...), rec("new/c", 1, true))}
		regs := Compare(base, cur)
		if len(regs) != 1 || regs[0].Name != "new/c" || !regs[0].Extra {
			t.Errorf("Compare = %v, want new/c extra", regs)
		}
	})
}

// TestBaselineRoundtrip: WriteBaseline then LoadLatestBaseline returns
// the same report, and the lexicographically latest date wins.
func TestBaselineRoundtrip(t *testing.T) {
	dir := t.TempDir()

	if _, _, err := LoadLatestBaseline(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: err = %v, want ErrNotExist", err)
	}

	old := BenchReport{Date: "2026-01-01", Revision: "old",
		Records: []BenchRecord{rec("rate/a", 50, true)}}
	cur := BenchReport{Date: "2026-08-06", Revision: "cur",
		Records: []BenchRecord{rec("rate/a", 100, true)}}
	for _, r := range []BenchReport{cur, old} { // write newest first: order must not matter
		if _, err := WriteBaseline(dir, r); err != nil {
			t.Fatal(err)
		}
	}

	got, path, err := LoadLatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != cur.Date || got.Revision != cur.Revision {
		t.Errorf("loaded %+v from %s, want the %s report", got, path, cur.Date)
	}
	if len(got.Records) != 1 || got.Records[0] != cur.Records[0] {
		t.Errorf("records roundtrip mismatch: %+v", got.Records)
	}
}
