package simtmp_test

import (
	"bytes"
	"errors"
	"testing"

	"simtmp"
)

// TestFacadeEndToEnd drives the public API the way the quickstart
// example does: a two-GPU runtime under full MPI semantics.
func TestFacadeEndToEnd(t *testing.T) {
	rt := simtmp.NewRuntime(simtmp.RuntimeConfig{Level: simtmp.FullMPI, GPUs: 2})
	if err := rt.Send(0, 1, 42, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	recv, err := rt.PostRecv(1, 0, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	msg, err := recv.Message()
	if err != nil || string(msg.Payload) != "hello" {
		t.Fatalf("Message = %+v, %v", msg, err)
	}
}

func TestFacadeMatchersAgainstOracle(t *testing.T) {
	msgs, reqs := simtmp.GenerateWorkload(simtmp.WorkloadConfig{N: 300, SrcWildcards: 0.2, Seed: 4})
	want := simtmp.ReferenceAssignment(msgs, reqs)
	m := simtmp.NewMatrixMatcher(simtmp.MatrixConfig{Arch: simtmp.MaxwellM40()})
	res, err := m.Match(msgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Assignment[i] != want[i] {
			t.Fatalf("request %d: %d != oracle %d", i, res.Assignment[i], want[i])
		}
	}
	if err := simtmp.VerifyOrderedResult(msgs, reqs, res.Assignment); err != nil {
		t.Error(err)
	}
}

func TestFacadeRelaxationErrors(t *testing.T) {
	p := simtmp.NewPartitionedMatcher(simtmp.PartitionedConfig{Queues: 4})
	_, err := p.Match(
		[]simtmp.Envelope{{Src: 0, Tag: 1}},
		[]simtmp.Request{{Src: simtmp.AnySource, Tag: 1}})
	if !errors.Is(err, simtmp.ErrSourceWildcard) {
		t.Errorf("err = %v, want ErrSourceWildcard", err)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	tr := &simtmp.Trace{App: "x", Ranks: 2, Events: []simtmp.TraceEvent{
		{Rank: 0, Peer: 1, Tag: 3},
	}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := simtmp.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := simtmp.AnalyzeTrace(got)
	if st.Sends != 1 {
		t.Errorf("Sends = %d, want 1", st.Sends)
	}
}
