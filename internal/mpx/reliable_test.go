package mpx

import (
	"errors"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
)

// TestSendRejectionBurnsNoSequenceNumber: a send rejected at
// validation must leave the logical clock untouched, so the
// pre-postedness decision of later messages is unaffected (the old
// path incremented seq before the transport could refuse the frame).
func TestSendRejectionBurnsNoSequenceNumber(t *testing.T) {
	rt := New(Config{GPUs: 2})
	before := func() uint64 {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return rt.seq
	}()
	if err := rt.Send(0, 99, 1, 0, nil); err == nil {
		t.Fatal("send to out-of-range GPU succeeded")
	}
	if err := rt.Send(99, 0, 1, 0, nil); err == nil {
		t.Fatal("send from out-of-range GPU succeeded")
	}
	if err := rt.Send(0, 1, envelope.AnyTag, 0, nil); err == nil {
		t.Fatal("send with wildcard tag succeeded")
	}
	rt.mu.Lock()
	after := rt.seq
	sends := rt.stats.Sends
	rt.mu.Unlock()
	if after != before {
		t.Fatalf("rejected sends burned sequence numbers: %d -> %d", before, after)
	}
	if sends != 0 {
		t.Fatalf("rejected sends counted: Sends = %d", sends)
	}
}

// TestSendQueuesUnderBackpressure: with a one-slot ring, sends beyond
// the first must queue in the flow outbox instead of failing, and a
// drain delivers all of them.
func TestSendQueuesUnderBackpressure(t *testing.T) {
	rt := New(Config{GPUs: 2, QueueCap: 1})
	const n = 8
	for i := 0; i < n; i++ {
		if err := rt.Send(0, 1, envelope.Tag(i), 0, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	recvs := make([]*Recv, n)
	for i := range recvs {
		r, err := rt.PostRecv(1, 0, envelope.Tag(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		recvs[i] = r
	}
	ok, err := rt.Drain(100)
	if err != nil || !ok {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
	for i, r := range recvs {
		m, err := r.Message()
		if err != nil || m.Payload[0] != byte(i) {
			t.Fatalf("recv %d: %v, %v", i, m, err)
		}
	}
}

// TestDrainFixedPointEarlyExit: a permanently-unmatchable receive must
// cost a couple of progress steps, not the whole budget.
func TestDrainFixedPointEarlyExit(t *testing.T) {
	rt := New(Config{GPUs: 2})
	if _, err := rt.PostRecv(1, 0, 42, 0); err != nil {
		t.Fatal(err)
	}
	const budget = 10_000
	ok, err := rt.Drain(budget)
	if ok || err != nil {
		t.Fatalf("Drain = %v, %v; want false, nil", ok, err)
	}
	if steps := rt.Stats().ProgressSteps; steps >= 10 {
		t.Fatalf("fixed point took %d steps; want early exit (budget %d)", steps, budget)
	}
}

// TestDrainStallError: a receiver paused forever with its ring full
// (so retransmission cannot even reach the wire) is a stall, and Drain
// names the stuck GPU instead of spinning or reporting a benign
// fixed point.
func TestDrainStallError(t *testing.T) {
	rt := New(Config{GPUs: 2, QueueCap: 1, StallPatience: 5, Fault: &fault.Config{Seed: 1}})
	rt.Injector().PauseGPU(1, 1<<30)
	for i := 0; i < 2; i++ {
		if err := rt.Send(0, 1, envelope.Tag(i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.PostRecv(1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Drain(1000)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Drain error = %v, want *StallError", err)
	}
	if stall.Open != 1 || len(stall.GPUs) != 1 || stall.GPUs[0] != 1 || stall.InFlight < 2 {
		t.Fatalf("stall snapshot = %+v", stall)
	}
	if steps := rt.Stats().ProgressSteps; steps > 50 {
		t.Fatalf("stall detection took %d steps with patience 5", steps)
	}
}

// TestDrainDropError: on a wire that drops everything, the retry
// budget runs out and Drain surfaces a *DropError naming the flow.
func TestDrainDropError(t *testing.T) {
	rt := New(Config{GPUs: 2, RetryLimit: 3, Fault: &fault.Config{Seed: 1, Drop: 1}})
	if err := rt.Send(0, 1, 7, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.PostRecv(1, 0, 7, 0); err != nil {
		t.Fatal(err)
	}
	_, err := rt.Drain(1000)
	var drop *DropError
	if !errors.As(err, &drop) {
		t.Fatalf("Drain error = %v, want *DropError", err)
	}
	if drop.Src != 0 || drop.Dst != 1 || drop.Flow != 1 || drop.Attempts != 3 {
		t.Fatalf("drop = %+v, want {Src:0 Dst:1 Flow:1 Attempts:3}", drop)
	}
	for _, part := range []string{"0", "1", "3"} {
		if !containsStr(drop.Error(), part) {
			t.Fatalf("DropError message %q does not name %q", drop.Error(), part)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestLosslessReliabilityCountersStayZero: without a fault config the
// reliable layer must be a no-op — no retries, no drops, no detected
// corruption, and exactly one ack per send.
func TestLosslessReliabilityCountersStayZero(t *testing.T) {
	rt := New(Config{GPUs: 3})
	const n = 60
	for i := 0; i < n; i++ {
		src, dst := i%3, (i+1)%3
		if err := rt.Send(src, dst, envelope.Tag(i), 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.PostRecv(dst, envelope.Rank(src), envelope.Tag(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := rt.Drain(50); !ok || err != nil {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
	st := rt.Stats()
	if st.Retries != 0 || st.Drops != 0 || st.Corrupt != 0 || st.Invalid != 0 ||
		st.Duplicates != 0 || st.StallSteps != 0 {
		t.Fatalf("lossless wire shows reliability activity: %+v", st)
	}
	if st.Acks != n {
		t.Fatalf("Acks = %d, want %d (one per send)", st.Acks, n)
	}
	if st.Matches != n {
		t.Fatalf("Matches = %d, want %d", st.Matches, n)
	}
}

// TestPerFlowOrderingSurvivesReordering: under heavy delay faults the
// wire reorders frames, but receiver-side reassembly must release them
// to matching in send order, preserving the FullMPI per-(src,tag)
// ordering guarantee.
func TestPerFlowOrderingSurvivesReordering(t *testing.T) {
	rt := New(Config{GPUs: 2, Fault: &fault.Config{Seed: 11, Delay: 0.6, MaxDelaySteps: 6}})
	const n = 40
	recvs := make([]*Recv, n)
	for i := 0; i < n; i++ {
		if err := rt.Send(0, 1, 5, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r, err := rt.PostRecv(1, 0, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		recvs[i] = r
	}
	if ok, err := rt.Drain(400); !ok || err != nil {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
	for i, r := range recvs {
		m, err := r.Message()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("recv %d got payload %d: ordering broken by reordering faults", i, m.Payload[0])
		}
	}
	if rt.Injector().Counters().Delays == 0 {
		t.Fatal("delay fault never fired")
	}
}

// TestChaosRecoveryExactlyOnce: under a mixed fault brew every message
// is still delivered exactly once, and each enabled fault class leaves
// a nonzero trace in the merged stats.
func TestChaosRecoveryExactlyOnce(t *testing.T) {
	rt := New(Config{GPUs: 3, Fault: &fault.Config{
		Seed: 3, Drop: 0.08, Duplicate: 0.08, Corrupt: 0.08, Delay: 0.08,
		AckDrop: 0.15, Stall: 0.05, CreditStarve: 0.05,
	}})
	const n = 120
	type key struct{ src, dst, i int }
	recvs := make(map[key]*Recv, n)
	for i := 0; i < n; i++ {
		src, dst := i%3, (i+1)%3
		if err := rt.Send(src, dst, envelope.Tag(i), 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		r, err := rt.PostRecv(dst, envelope.Rank(src), envelope.Tag(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		recvs[key{src, dst, i}] = r
	}
	if ok, err := rt.Drain(2000); !ok || err != nil {
		t.Fatalf("Drain = %v, %v (stats %+v)", ok, err, rt.Stats())
	}
	for k, r := range recvs {
		m, err := r.Message()
		if err != nil {
			t.Fatalf("recv %+v undelivered: %v", k, err)
		}
		if int(m.Env.Src) != k.src || m.Payload[0] != byte(k.i) {
			t.Fatalf("recv %+v got wrong message %+v", k, m)
		}
	}
	st := rt.Stats()
	if st.Matches != n {
		t.Fatalf("Matches = %d, want %d", st.Matches, n)
	}
	for name, v := range map[string]int{
		"Retries": st.Retries, "Drops": st.Drops, "Corrupt": st.Corrupt,
		"Duplicates": st.Duplicates, "Acks": st.Acks, "StallSteps": st.StallSteps,
	} {
		if v == 0 {
			t.Errorf("stat %s = 0; fault class left no trace (stats %+v)", name, st)
		}
	}
}

// TestChaosReplayDeterminism: the same seed gives the same merged
// stats — the whole chaos run replays bit-for-bit.
func TestChaosReplayDeterminism(t *testing.T) {
	run := func() Stats {
		rt := New(Config{GPUs: 3, Fault: &fault.Config{
			Seed: 5, Drop: 0.1, Duplicate: 0.1, Corrupt: 0.1, Delay: 0.1, AckDrop: 0.1,
		}})
		for i := 0; i < 50; i++ {
			src, dst := i%3, (i+1)%3
			if err := rt.Send(src, dst, envelope.Tag(i), 0, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.PostRecv(dst, envelope.Rank(src), envelope.Tag(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if ok, err := rt.Drain(1000); !ok || err != nil {
			t.Fatalf("Drain = %v, %v", ok, err)
		}
		return rt.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("chaos replay diverged:\n%+v\n%+v", a, b)
	}
}
