package mpx

import (
	"errors"
	"math/rand"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/match"
	"simtmp/internal/proto"
)

func TestLevelString(t *testing.T) {
	levels := map[Level]string{
		FullMPI: "full-mpi", NoSourceWildcard: "no-src-wildcard",
		NoUnexpected: "no-unexpected", Unordered: "unordered",
		StreamOrdered: "stream-ordered",
		Level(9):      "Level(9)",
	}
	for l, want := range levels {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestBasicSendRecvFullMPI(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	if err := rt.Send(0, 1, 7, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	r, err := rt.PostRecv(1, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Done() {
		t.Error("delivered before Progress")
	}
	if _, err := r.Message(); !errors.Is(err, ErrNotDelivered) {
		t.Errorf("Message before delivery: %v", err)
	}
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("not delivered after Progress")
	}
	msg, err := r.Message()
	if err != nil || string(msg.Payload) != "payload" {
		t.Errorf("Message = %+v, %v", msg, err)
	}
	st := rt.Stats()
	if st.Matches != 1 || st.Sends != 1 || st.PostedRecvs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.SimSeconds <= 0 || st.Rate() <= 0 {
		t.Errorf("no simulated time: %+v", st)
	}
}

func TestWildcardRecvFullMPIOnly(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	rt.Send(0, 1, 3, 0, nil)
	r, err := rt.PostRecv(1, envelope.AnySource, envelope.AnyTag, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Error("wildcard recv not delivered")
	}
}

func TestNoSourceWildcardRejects(t *testing.T) {
	rt := New(Config{Level: NoSourceWildcard, GPUs: 2})
	if _, err := rt.PostRecv(1, envelope.AnySource, 1, 0); !errors.Is(err, match.ErrSourceWildcard) {
		t.Errorf("err = %v, want ErrSourceWildcard", err)
	}
	// Tag wildcard still allowed at this level.
	if _, err := rt.PostRecv(1, 0, envelope.AnyTag, 0); err != nil {
		t.Errorf("tag wildcard rejected: %v", err)
	}
}

func TestUnorderedRejectsAllWildcards(t *testing.T) {
	rt := New(Config{Level: Unordered, GPUs: 2})
	if _, err := rt.PostRecv(1, envelope.AnySource, 1, 0); !errors.Is(err, match.ErrWildcard) {
		t.Errorf("src wildcard: err = %v", err)
	}
	if _, err := rt.PostRecv(1, 0, envelope.AnyTag, 0); !errors.Is(err, match.ErrWildcard) {
		t.Errorf("tag wildcard: err = %v", err)
	}
}

func TestNoUnexpectedContract(t *testing.T) {
	rt := New(Config{Level: NoUnexpected, GPUs: 2})
	// Message arrives with no posted recv: Progress must fail.
	rt.Send(0, 1, 5, 0, nil)
	err := rt.Progress()
	if !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("err = %v, want ErrUnexpectedMessage", err)
	}

	// Pre-posted: fine.
	rt2 := New(Config{Level: NoUnexpected, GPUs: 2})
	r, err := rt2.PostRecv(1, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt2.Send(0, 1, 5, 0, nil)
	if err := rt2.Progress(); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Error("pre-posted recv not delivered")
	}
}

func TestUnorderedDelivery(t *testing.T) {
	rt := New(Config{Level: Unordered, GPUs: 2})
	// Distinct tags identify the messages (the user's new obligation
	// under this relaxation).
	var recvs []*Recv
	for tag := 0; tag < 50; tag++ {
		rt.Send(0, 1, envelope.Tag(tag), 0, []byte{byte(tag)})
		r, err := rt.PostRecv(1, 0, envelope.Tag(tag), 0)
		if err != nil {
			t.Fatal(err)
		}
		recvs = append(recvs, r)
	}
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	for tag, r := range recvs {
		msg, err := r.Message()
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if msg.Env.Tag != envelope.Tag(tag) || msg.Payload[0] != byte(tag) {
			t.Errorf("tag %d got %+v", tag, msg)
		}
	}
}

func TestOrderingWithinPairFullMPI(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	rt.Send(0, 1, 9, 0, []byte("first"))
	rt.Send(0, 1, 9, 0, []byte("second"))
	r1, _ := rt.PostRecv(1, 0, 9, 0)
	r2, _ := rt.PostRecv(1, 0, 9, 0)
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	m1, _ := r1.Message()
	m2, _ := r2.Message()
	if string(m1.Payload) != "first" || string(m2.Payload) != "second" {
		t.Errorf("pairwise order violated: %q then %q", m1.Payload, m2.Payload)
	}
}

func TestLateSendMatchesPostedRecv(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	r, _ := rt.PostRecv(1, 0, 4, 0)
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	if r.Done() {
		t.Fatal("delivered with no message")
	}
	rt.Send(0, 1, 4, 0, []byte("late"))
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Error("posted recv not matched by late send")
	}
}

func TestDrain(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 3})
	var recvs []*Recv
	for g := 1; g < 3; g++ {
		for i := 0; i < 10; i++ {
			rt.Send(0, g, envelope.Tag(i), 0, nil)
			r, _ := rt.PostRecv(g, 0, envelope.Tag(i), 0)
			recvs = append(recvs, r)
		}
	}
	ok, err := rt.Drain(5)
	if err != nil || !ok {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
	for i, r := range recvs {
		if !r.Done() {
			t.Errorf("recv %d undelivered", i)
		}
	}
}

func TestDrainGivesUpOnUnsatisfiable(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	rt.PostRecv(1, 0, 99, 0) // no message will ever come
	ok, err := rt.Drain(3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Drain reported success with an open recv")
	}
}

func TestSendRecvBoundsErrors(t *testing.T) {
	rt := New(Config{GPUs: 2})
	if err := rt.Send(-1, 0, 1, 0, nil); err == nil {
		t.Error("negative src accepted")
	}
	if err := rt.Send(0, 7, 1, 0, nil); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := rt.PostRecv(9, 0, 1, 0); err == nil {
		t.Error("out-of-range recv GPU accepted")
	}
	if _, err := rt.PostRecv(0, 0, -7, 0); err == nil {
		t.Error("invalid tag accepted")
	}
}

func TestEngineSelectionPerLevel(t *testing.T) {
	cases := map[Level]string{
		FullMPI:          "gpu-matrix",
		NoSourceWildcard: "gpu-partitioned",
		NoUnexpected:     "gpu-partitioned",
		Unordered:        "gpu-hash",
	}
	for level, prefix := range cases {
		rt := New(Config{Level: level})
		if name := rt.EngineName(); len(name) < len(prefix) || name[:len(prefix)] != prefix {
			t.Errorf("level %v engine = %q, want prefix %q", level, name, prefix)
		}
	}
}

func TestCommunicatorIsolationThroughRuntime(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	rt.Send(0, 1, 5, 1, nil)
	r, _ := rt.PostRecv(1, 0, 5, 2)
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	if r.Done() {
		t.Error("matched across communicators")
	}
	st := rt.Stats()
	if st.Unmatched != 1 {
		t.Errorf("Unmatched = %d, want 1", st.Unmatched)
	}
}

func TestTransferAccounting(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2})
	// Pre-posted small message: eager, no bounce copy.
	r1, _ := rt.PostRecv(1, 0, 1, 0)
	rt.Send(0, 1, 1, 0, make([]byte, 1024))
	// Unexpected large message: rendezvous.
	rt.Send(0, 1, 2, 0, make([]byte, 64*1024))
	r2, _ := rt.PostRecv(1, 0, 2, 0)
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.EagerMsgs != 1 || st.RendezvousMsgs != 1 {
		t.Errorf("eager/rendezvous = %d/%d, want 1/1", st.EagerMsgs, st.RendezvousMsgs)
	}
	if st.PrePostedMsgs != 1 {
		t.Errorf("preposted = %d, want 1", st.PrePostedMsgs)
	}
	if st.BytesMoved != 1024+64*1024 {
		t.Errorf("BytesMoved = %d", st.BytesMoved)
	}
	if st.TransferSeconds <= 0 {
		t.Error("no transfer time accounted")
	}
	if r1.Transfer().CopySeconds != 0 {
		t.Error("pre-posted eager message paid a copy")
	}
	if r2.Transfer().Seconds() <= r1.Transfer().Seconds() {
		t.Error("large rendezvous not slower than small eager")
	}
}

func TestCustomLinkAndProtocol(t *testing.T) {
	rt := New(Config{
		Level:    FullMPI,
		GPUs:     2,
		Link:     proto.PCIe3(),
		Protocol: proto.Policy{EagerThreshold: 16},
	})
	rt.Send(0, 1, 1, 0, make([]byte, 64)) // above the tiny threshold
	r, _ := rt.PostRecv(1, 0, 1, 0)
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	if got := r.Transfer().Mode; got != proto.Rendezvous {
		t.Errorf("mode = %v, want rendezvous under 16B threshold", got)
	}
}

func TestRandomTrafficConformance(t *testing.T) {
	// Randomized end-to-end conformance: under FullMPI, every delivery
	// must satisfy its request, pairwise (src,dst,tag,comm) streams
	// must deliver in send order, and everything matchable must
	// eventually deliver.
	rng := rand.New(rand.NewSource(77))
	const gpus = 4
	rt := New(Config{Level: FullMPI, GPUs: gpus, QueueCap: 512})

	// Payload encodes a per-(src,dst,tag) sequence number.
	counters := map[[3]int]int{}
	type recvInfo struct {
		h   *Recv
		dst int
	}
	var recvs []recvInfo
	var wantTotal int
	for i := 0; i < 300; i++ {
		src, dst := rng.Intn(gpus), rng.Intn(gpus)
		tag := envelope.Tag(rng.Intn(4))
		key := [3]int{src, dst, int(tag)}
		seq := counters[key]
		counters[key]++
		payload := []byte{byte(src), byte(tag), byte(seq)}
		if err := rt.Send(src, dst, tag, 0, payload); err != nil {
			t.Fatal(err)
		}
		// Post a matching receive (sometimes wildcarded).
		rsrc := envelope.Rank(src)
		if rng.Intn(4) == 0 {
			rsrc = envelope.AnySource
		}
		h, err := rt.PostRecv(dst, rsrc, tag, 0)
		if err != nil {
			t.Fatal(err)
		}
		recvs = append(recvs, recvInfo{h: h, dst: dst})
		wantTotal++
	}
	ok, err := rt.Drain(20)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("traffic did not drain")
	}
	// Per-(src,dst,tag) stream: delivered sequence numbers must be
	// strictly increasing (pairwise ordering).
	lastSeq := map[[3]int]int{}
	delivered := 0
	for _, ri := range recvs {
		msg, err := ri.h.Message()
		if err != nil {
			continue
		}
		delivered++
		key := [3]int{int(msg.Env.Src), ri.dst, int(msg.Env.Tag)}
		seq := int(msg.Payload[2])
		if last, seen := lastSeq[key]; seen && seq <= last {
			t.Fatalf("stream %v delivered seq %d after %d", key, seq, last)
		}
		lastSeq[key] = seq
	}
	if delivered != wantTotal {
		t.Errorf("delivered %d of %d", delivered, wantTotal)
	}
}
