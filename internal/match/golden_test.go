package match

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/workload"
)

// goldenCountersPath holds one line per engine call of
// engineCounterRecords: the simulated results every engine must keep
// bit-exactly across host-side optimisations.
const goldenCountersPath = "testdata/engine_counters.golden"

// goldenBatch is one MatchInto call of a golden sequence.
type goldenBatch struct {
	n, reqs          int
	srcWild, tagWild float64
	matchFraction    float64
	streams          int
	unique           bool
}

// goldenEngine is an engine instance driven through a sequence of
// batches on one instance, so the sequence also pins scratch reuse
// (large batches followed by small ones and back).
type goldenEngine struct {
	name    string
	m       ReusableMatcher
	batches []goldenBatch
}

func goldenEngines() []goldenEngine {
	a := arch.PascalGTX1080()
	// Both matrix paths: blocks of at most fusedLimit messages take the
	// single-warp fused path, longer ones the vote matrix.
	ordered := []goldenBatch{
		{n: 300, srcWild: 0.2, tagWild: 0.2},
		{n: 40, reqs: 90, srcWild: 0.3, matchFraction: 0.5},
		{n: 1100, reqs: 700, srcWild: 0.1},
		{n: 17, reqs: 5},
		{n: 64, reqs: 64, tagWild: 0.4},
		{n: 200, reqs: 260, matchFraction: 0.6},
	}
	noSrcWild := []goldenBatch{
		{n: 400, tagWild: 0.2},
		{n: 30, reqs: 70, matchFraction: 0.5},
		{n: 1500, reqs: 900},
		{n: 9, reqs: 3, tagWild: 0.5},
		{n: 250, reqs: 250, matchFraction: 0.7},
	}
	streamed := []goldenBatch{
		{n: 48, reqs: 112, srcWild: 0.2, tagWild: 0.1, streams: 4},
		{n: 600, reqs: 500, srcWild: 0.1, streams: 8},
		{n: 12, reqs: 28, streams: 4, matchFraction: 0.8},
		{n: 300, reqs: 300, srcWild: 0.3, tagWild: 0.3, streams: 16},
		{n: 47, reqs: 111, streams: 4},
	}
	unordered := []goldenBatch{
		{n: 1024, unique: true},
		{n: 40, reqs: 90, unique: true},
		{n: 500, reqs: 400, matchFraction: 0.7},
		{n: 3, reqs: 1, unique: true},
		{n: 2000, reqs: 1500},
		{n: 64, reqs: 64, unique: true},
	}
	return []goldenEngine{
		{"matrix", NewMatrixMatcher(MatrixConfig{Arch: a}), ordered},
		{"matrix-kepler-window32-ctas2", NewMatrixMatcher(MatrixConfig{Arch: arch.KeplerK80(), Window: 32, MaxCTAs: 2}), ordered},
		{"matrix+compact+sms2", NewMatrixMatcher(MatrixConfig{Arch: a, Compact: true, SMs: 2}), ordered},
		{"partitioned-q4", NewPartitionedMatcher(PartitionedConfig{Arch: a, Queues: 4}), noSrcWild},
		{"partitioned-q8+compact", NewPartitionedMatcher(PartitionedConfig{Arch: a, Queues: 8, MaxCTAs: 2, Compact: true}), noSrcWild},
		{"stream-s4", NewStreamMatcher(StreamConfig{Arch: a, Streams: 4}), streamed},
		{"stream-s16", NewStreamMatcher(StreamConfig{Arch: arch.MaxwellM40(), Streams: 16}), streamed},
		{"hash-twolevel", MustHashMatcher(HashConfig{Arch: a, CTAs: 4}), unordered},
		{"hash-twolevel-fnv", MustHashMatcher(HashConfig{Arch: a, HashName: "fnv1a"}), unordered},
		{"hash-linear", MustHashMatcher(HashConfig{Arch: a, CTAs: 2, Policy: LinearProbe}), unordered},
	}
}

// engineCounterRecords runs every golden engine over its batch sequence
// and formats one line per call: the assignment's match count and
// FNV-64 digest, the iteration count, every simt.Counters field and
// the bits of SimSeconds.
func engineCounterRecords(t *testing.T) []string {
	var out []string
	for _, ge := range goldenEngines() {
		var res Result
		for bi, b := range ge.batches {
			msgs, reqs := workload.Generate(workload.Config{
				N: b.n, Requests: b.reqs, Peers: 8, Tags: 6, Unique: b.unique,
				SrcWildcards: b.srcWild, TagWildcards: b.tagWild,
				MatchFraction: b.matchFraction, Streams: b.streams, Seed: int64(bi + 1),
			})
			if err := ge.m.MatchInto(&res, msgs, reqs); err != nil {
				t.Fatalf("%s batch %d: %v", ge.name, bi, err)
			}
			out = append(out, formatGoldenRecord(ge.name, bi, &res))
		}
	}
	return out
}

func formatGoldenRecord(name string, batch int, res *Result) string {
	h := fnv.New64a()
	for _, m := range res.Assignment {
		fmt.Fprintf(h, "%d,", m)
	}
	c := res.Counters
	return fmt.Sprintf("%s #%d matched=%d assign=%016x iters=%d alu=%d ballot=%d shfl=%d sld=%d sst=%d sconf=%d gld=%d gst=%d gtrans=%d atomic=%d sync=%d branch=%d sim=%016x",
		name, batch, res.Assignment.Matched(), h.Sum64(), res.Iterations,
		c.ALU, c.Ballot, c.Shfl, c.SMemLoad, c.SMemStore, c.SMemConflict,
		c.GMemLoad, c.GMemStore, c.GMemTrans, c.Atomic, c.Sync, c.Branch,
		math.Float64bits(res.SimSeconds))
}

// TestEngineCountersGolden pins every GPU engine's simulated output —
// assignment, iterations, every instruction counter and the simulated
// time bits — against the committed golden file. Host-side changes to
// the simulator must leave every line unchanged; a deliberate model
// change regenerates the file and says which lines moved.
func TestEngineCountersGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenCountersPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := engineCounterRecords(t)
	if len(got) != len(want) {
		t.Fatalf("%d records, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("record %d differs:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d records differ in all", bad)
	}
}
