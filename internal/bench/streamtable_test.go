package bench

import (
	"strings"
	"testing"
)

// TestStreamScalingStory gates the stream relaxation's headline claim:
// rates rise with the stream count, a single stream costs about what
// full MPI costs (the relaxation is free to not use), and at 8
// streams the stream engine clears 1.5x over the full-MPI matrix on
// the identical workload — the speedup the regress baseline tracks.
func TestStreamScalingStory(t *testing.T) {
	rows := StreamScaling()
	if len(rows) != 4 {
		t.Fatalf("StreamScaling has %d rows, want 4", len(rows))
	}
	for i, want := range []int{1, 2, 4, 8} {
		if rows[i].Streams != want {
			t.Fatalf("row %d covers %d streams, want %d", i, rows[i].Streams, want)
		}
		if rows[i].RateM <= 0 || rows[i].FullRateM <= 0 {
			t.Fatalf("row %d has non-positive rates: %+v", i, rows[i])
		}
	}
	if s1 := rows[0].Speedup; s1 < 0.8 || s1 > 1.3 {
		t.Errorf("1-stream speedup %.2fx, want ≈1x (single partition ≈ full matrix)", s1)
	}
	if s8 := rows[3].Speedup; s8 < 1.5 {
		t.Errorf("8-stream speedup %.2fx < 1.5x over full MPI", s8)
	}
	if rows[3].RateM <= rows[1].RateM {
		t.Errorf("rate did not rise with streams: s2 %.2fM, s8 %.2fM",
			rows[1].RateM, rows[3].RateM)
	}
}

// TestStreamRecordsShape: the regress records carry one rate per
// stream count plus the gated speedup, under the stream/* namespace.
func TestStreamRecordsShape(t *testing.T) {
	recs := StreamScalingRecords(StreamScaling())
	if len(recs) != 5 {
		t.Fatalf("StreamRecords emitted %d records, want 5", len(recs))
	}
	sawSpeedup := false
	for _, r := range recs {
		if !strings.HasPrefix(r.Name, "stream/") {
			t.Errorf("record %q outside the stream/ namespace", r.Name)
		}
		if !r.HigherIsBetter {
			t.Errorf("record %q: higher=%v, want a higher-is-better rate", r.Name, r.HigherIsBetter)
		}
		if r.Name == "stream/speedup_s8_vs_full" {
			sawSpeedup = true
			if r.Value < 1.5 {
				t.Errorf("speedup record %.2fx < 1.5x", r.Value)
			}
		}
	}
	if !sawSpeedup {
		t.Error("no stream/speedup_s8_vs_full record emitted")
	}
}
