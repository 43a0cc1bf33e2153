package match

import (
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/workload"
)

func streamWorkload(n, streams int, seed int64) ([]envelope.Envelope, []envelope.Request) {
	return workload.Generate(workload.Config{N: n, Peers: 16, Tags: 32, Streams: streams, Seed: seed})
}

func TestVerifyStreamOrderedAcceptsPerStreamOracle(t *testing.T) {
	msgs, reqs := streamWorkload(256, 4, 7)
	// The global ordered oracle is per-stream ordered a fortiori
	// (streams partition the domain), so it must verify.
	a := Reference(msgs, reqs)
	if err := VerifyStreamOrdered(msgs, reqs, a); err != nil {
		t.Fatalf("global oracle rejected: %v", err)
	}
}

func TestVerifyStreamOrderedRejectsWithinStreamReorder(t *testing.T) {
	// Two identical-tuple messages on one stream, two AnySource
	// requests on the same stream: posted order demands request 0 take
	// message 0. Swapping is a within-stream violation.
	msgs := []envelope.Envelope{
		{Src: 1, Tag: 5, Comm: 0, Stream: 2},
		{Src: 2, Tag: 5, Comm: 0, Stream: 2},
	}
	reqs := []envelope.Request{
		{Src: envelope.AnySource, Tag: 5, Comm: 0, Stream: 2},
		{Src: envelope.AnySource, Tag: 5, Comm: 0, Stream: 2},
	}
	if err := VerifyStreamOrdered(msgs, reqs, Assignment{0, 1}); err != nil {
		t.Fatalf("in-order assignment rejected: %v", err)
	}
	if err := VerifyStreamOrdered(msgs, reqs, Assignment{1, 0}); err == nil {
		t.Fatal("within-stream reorder accepted")
	}
}

func TestVerifyStreamOrderedWeakerThanOrdered(t *testing.T) {
	// Same shape split across two streams: the wildcard on stream 0
	// must not see stream 1's earlier message, so an assignment the
	// global ordered oracle would reject (request 0 skipping message
	// 0) is exactly what per-stream order demands.
	msgs := []envelope.Envelope{
		{Src: 1, Tag: 5, Comm: 0, Stream: 1},
		{Src: 2, Tag: 5, Comm: 0, Stream: 0},
	}
	reqs := []envelope.Request{
		{Src: envelope.AnySource, Tag: 5, Comm: 0, Stream: 0},
		{Src: envelope.AnySource, Tag: 5, Comm: 0, Stream: 1},
	}
	a := Assignment{1, 0}
	if err := VerifyStreamOrdered(msgs, reqs, a); err != nil {
		t.Fatalf("cross-stream pairing rejected: %v", err)
	}
	// Sanity: the pairing honors the packed predicate too.
	if err := CheckAssignment(msgs, reqs, a); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMatcherConformance(t *testing.T) {
	m := NewStreamMatcher(StreamConfig{Streams: 8})
	ct := m.Contract()
	if !ct.StreamQualified || ct.Semantics != Ordered || !ct.SrcWildcard || !ct.TagWildcard {
		t.Fatalf("unexpected contract %+v", ct)
	}
	for _, streams := range []int{1, 2, 4, 8, 16} {
		for seed := int64(1); seed <= 5; seed++ {
			msgs, reqs := streamWorkload(512, streams, seed)
			res, err := m.Match(msgs, reqs)
			if err != nil {
				t.Fatalf("streams=%d seed=%d: %v", streams, seed, err)
			}
			if err := ct.Verify(msgs, reqs, res.Assignment); err != nil {
				t.Fatalf("streams=%d seed=%d: %v", streams, seed, err)
			}
			if res.SimSeconds <= 0 {
				t.Fatalf("streams=%d seed=%d: no simulated time billed", streams, seed)
			}
		}
	}
}

func TestStreamMatcherWildcardsWithinStream(t *testing.T) {
	m := NewStreamMatcher(StreamConfig{Streams: 4})
	msgs := []envelope.Envelope{
		{Src: 3, Tag: 9, Comm: 0, Stream: 1},
		{Src: 4, Tag: 9, Comm: 0, Stream: 3},
	}
	reqs := []envelope.Request{
		{Src: envelope.AnySource, Tag: envelope.AnyTag, Comm: 0, Stream: 3},
		{Src: envelope.AnySource, Tag: envelope.AnyTag, Comm: 0, Stream: 1},
	}
	res, err := m.Match(msgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] != 1 || res.Assignment[1] != 0 {
		t.Fatalf("wildcards leaked across streams: %v", res.Assignment)
	}
}

// TestStreamMatcherFasterThanMatrix pins the relaxation's point: on a
// balanced 8-stream workload the stream-concurrent matcher beats the
// fully ordered matrix engine on simulated matching time.
func TestStreamMatcherFasterThanMatrix(t *testing.T) {
	msgs, reqs := streamWorkload(1024, 8, 3)
	sm := NewStreamMatcher(StreamConfig{Streams: 8})
	full := NewMatrixMatcher(MatrixConfig{})
	sres, err := sm.Match(msgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := full.Match(msgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Assignment.Matched() != fres.Assignment.Matched() {
		t.Fatalf("matched counts diverge: stream %d, matrix %d",
			sres.Assignment.Matched(), fres.Assignment.Matched())
	}
	speedup := fres.SimSeconds / sres.SimSeconds
	if speedup < 1.5 {
		t.Fatalf("stream matcher speedup %.2fx < 1.5x (stream %.3gs, matrix %.3gs)",
			speedup, sres.SimSeconds, fres.SimSeconds)
	}
}

func TestStreamMatcherZeroAlloc(t *testing.T) {
	msgs, reqs := streamWorkload(512, 8, 9)
	m := NewStreamMatcher(StreamConfig{Streams: 8})
	var res Result
	if err := m.MatchInto(&res, msgs, reqs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := m.MatchInto(&res, msgs, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state MatchInto allocates %.1f times per run", allocs)
	}
}
