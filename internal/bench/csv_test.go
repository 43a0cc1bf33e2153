package bench

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"simtmp/internal/stats"
)

func TestWriteCSVBasic(t *testing.T) {
	rows := []Fig4Point{
		{Arch: "Pascal", QueueLen: 1024, RateM: 5.81},
		{Arch: "Kepler", QueueLen: 512, RateM: 3.46},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "Arch,QueueLen,RateM" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "Pascal,1024,5.81" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteCSVExpandsSummaries(t *testing.T) {
	rows := []Fig2Row{{
		App: "x",
		UMQ: stats.Summarize([]float64{1, 2, 3}),
		PRQ: stats.Summarize([]float64{4}),
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	head := strings.Split(strings.TrimSpace(buf.String()), "\n")[0]
	for _, col := range []string{"UMQ_min", "UMQ_median", "UMQ_max", "PRQ_mean"} {
		if !strings.Contains(head, col) {
			t.Errorf("header %q missing %s", head, col)
		}
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 42); err == nil {
		t.Error("non-slice accepted")
	}
	if err := WriteCSV(&buf, []int{1, 2}); err == nil {
		t.Error("non-struct slice accepted")
	}
	if err := WriteCSV(&buf, []Fig4Point{}); err != nil {
		t.Errorf("empty slice: %v", err)
	}
}

func TestWriteCSVAllExperimentRowTypes(t *testing.T) {
	// Every row type a report section writes as CSV must serialize to a
	// header and one row of the same width. Serializing depends only on
	// the type, so one literal row each stands in for the experiment.
	var buf bytes.Buffer
	for _, rows := range []any{
		[]TableIRow{{App: "x", SrcWild: true, PeersMean: 1.5}},
		[]Fig2Row{{App: "x", UMQ: stats.Summarize([]float64{1, 2})}},
		[]Fig6aRow{{App: "x", MeanSharePct: 1}},
		[]AppSizeRow{{App: "x", EagerPct: 50}},
		[]CPURow{{QueueLen: 16, RateM: 30}},
		[]Fig4Point{{Arch: "Pascal", QueueLen: 16}},
		[]Fig5Point{{Queues: 2, RateM: 1}},
		[]Fig6bPoint{{Arch: "Kepler", Elements: 1024}},
		[]TableIIRow{{DataStructure: "Matrix", RateM: 1}},
		[]CompactionRow{{QueueLen: 1}},
		[]FractionRow{{Fraction: 0.5}},
		[]OrderRow{{QueueLen: 2048}},
		[]HashAblationRow{{HashName: "fnv1a"}},
		[]WildcardHashRow{{WildcardPct: 1}},
		[]StreamRow{{Engine: "hash", Stable: true}},
		[]EndpointRow{{Engine: "hash"}},
		[]SMRow{{Engine: "matrix"}},
		[]MsgSizeRow{{Bytes: 8}},
		[]ApplicabilityRow{{App: "x"}},
		[]CommParRow{{Comms: 7}},
		[]StreamScalingRow{{Streams: 8}},
		[]ChaosRow{{Level: "full-mpi"}},
		[]PersistSweepPoint{{Iters: 2}},
		[]BenchRecord{{Name: "soak/steady/p99_us", Value: 1}},
	} {
		buf.Reset()
		if err := WriteCSV(&buf, rows); err != nil {
			t.Errorf("%T: %v", rows, err)
			continue
		}
		recs, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Errorf("%T: output does not parse: %v", rows, err)
			continue
		}
		if len(recs) != 2 || len(recs[0]) != len(recs[1]) {
			t.Errorf("%T: want a header and one row of equal width, got %q", rows, recs)
		}
	}
}
