package mpx

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/gas"
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

// msgAt is a held message recognizable by its flow sequence.
func msgAt(seq uint64) gas.Message { return gas.Message{Flow: seq, Payload: []byte{byte(seq)}} }

// popAll releases everything contiguous at the frontier and returns
// the released flow sequences.
func popAll(r *reorder) []uint64 {
	var got []uint64
	for m, ok := r.pop(); ok; m, ok = r.pop() {
		got = append(got, m.Flow)
	}
	return got
}

// heldSpan returns the distance from the frontier to the highest held
// sequence, plus one (0 when nothing is held).
func heldSpan(r *reorder) uint64 {
	var span uint64
	mask := uint64(len(r.present) - 1)
	for i, ok := range r.present {
		if ok {
			span = max(span, (uint64(i)-r.next)&mask+1)
		}
	}
	return span
}

// TestReorderRing drives the sequence-indexed ring through
// out-of-order holds, wrap-around, growth with entries held, and the
// seen checks duplicate suppression relies on.
func TestReorderRing(t *testing.T) {
	r := newReorder()
	if r.seen(1) || r.pending() != 0 || len(r.slots) != 0 {
		t.Fatalf("fresh ring: seen(1)=%v pending=%d slots=%d", r.seen(1), r.pending(), len(r.slots))
	}
	// Out of order: 3 and 2 wait for 1.
	r.hold(3, msgAt(3))
	r.hold(2, msgAt(2))
	if _, ok := r.pop(); ok {
		t.Fatal("pop released past the gap at 1")
	}
	if got := r.minHeld(); got != 2 {
		t.Fatalf("minHeld = %d, want 2", got)
	}
	if !r.seen(2) || !r.seen(3) || r.seen(1) || r.seen(4) {
		t.Fatal("seen disagrees with the held set {2,3}")
	}
	r.hold(1, msgAt(1))
	if got := popAll(&r); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("released %v, want [1 2 3]", got)
	}
	if r.next != 4 || r.pending() != 0 || !r.seen(1) || !r.seen(3) || r.seen(4) {
		t.Fatalf("after release: next=%d pending=%d", r.next, r.pending())
	}

	// Wrap-around: swapped pairs walk the frontier through the 8-slot
	// ring many times without growing it.
	for seq := uint64(4); seq < 100; seq += 2 {
		r.hold(seq+1, msgAt(seq+1))
		if !r.seen(seq+1) || r.seen(seq) {
			t.Fatalf("seq %d: held %d not seen, or missing %d seen", seq, seq+1, seq)
		}
		r.hold(seq, msgAt(seq))
		if got := popAll(&r); !slices.Equal(got, []uint64{seq, seq + 1}) {
			t.Fatalf("released %v, want [%d %d]", got, seq, seq+1)
		}
	}
	if len(r.slots) != reorderMinCap {
		t.Fatalf("ring grew to %d slots with a span of 2", len(r.slots))
	}

	// Growth with entries held: a hold 100 past the frontier doubles
	// the ring to 128 slots and keeps every held message at its seq.
	held := []uint64{101, 103, 107, 120, 200}
	for _, seq := range held {
		r.hold(seq, msgAt(seq))
	}
	if len(r.slots) != 128 || r.pending() != len(held) || heldSpan(&r) != 101 {
		t.Fatalf("after growth: %d slots, %d held, span %d; want 128, %d, 101",
			len(r.slots), r.pending(), heldSpan(&r), len(held))
	}
	if got := r.minHeld(); got != 101 {
		t.Fatalf("minHeld = %d, want 101", got)
	}
	for _, seq := range held {
		if !r.seen(seq) {
			t.Fatalf("held %d lost in growth", seq)
		}
	}
	for seq := uint64(100); seq <= 200; seq++ {
		if !r.seen(seq) {
			r.hold(seq, msgAt(seq))
		}
	}
	got := popAll(&r)
	if len(got) != 101 || got[0] != 100 || got[100] != 200 || !slices.IsSorted(got) {
		t.Fatalf("released %d messages %v…, want 100..200 in order", len(got), got[:min(len(got), 4)])
	}
	// pop zeroed every released slot: the ring keeps no payload.
	for i, m := range r.slots {
		if r.present[i] || !reflect.ValueOf(m).IsZero() {
			t.Fatalf("slot %d still holds %+v (present %v) after release", i, m, r.present[i])
		}
	}
}

// TestReorderSpanExceedsWindow: acks are selective, so while a dropped
// frame waits for its retransmission the sender keeps filling its
// window with later frames, and the receiver's held span grows past
// Config.Window. Delivery must still be exactly once and in per-flow
// order, and the reliable layer must be idle afterwards.
func TestReorderSpanExceedsWindow(t *testing.T) {
	const window, n = 8, 300
	rt := New(Config{GPUs: 2, Window: window, Fault: &fault.Config{Seed: 1, Drop: 0.2}})
	recvs := make([]*Recv, n)
	for i := range recvs {
		if err := rt.Send(0, 1, 5, 0, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
		r, err := rt.PostRecv(1, 0, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		recvs[i] = r
	}
	var peak uint64
	for done := false; !done; {
		var err error
		if done, err = rt.Drain(1); err != nil {
			t.Fatal(err)
		}
		rt.mu.Lock()
		if rx := rt.rx[1][0]; rx != nil {
			peak = max(peak, heldSpan(&rx.ledger))
		}
		steps := rt.stats.ProgressSteps
		rt.mu.Unlock()
		if steps > 20000 {
			t.Fatal("no full delivery after 20000 steps")
		}
	}
	if peak <= window {
		t.Fatalf("peak held span %d never exceeded the window of %d", peak, window)
	}
	t.Logf("peak held span %d with Window %d", peak, window)
	for i, r := range recvs {
		m, err := r.Message()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got := int(m.Payload[0]) | int(m.Payload[1])<<8; got != i {
			t.Fatalf("recv %d got message %d: per-flow order broken", i, got)
		}
	}
	if st := rt.Stats(); st.Matches != n || st.Drops == 0 {
		t.Fatalf("Matches = %d (want %d), Drops = %d (want > 0)", st.Matches, n, st.Drops)
	}
	rt.mu.Lock()
	idle := rt.flowsIdleLocked()
	rt.mu.Unlock()
	if !idle {
		t.Fatal("reliable layer not idle after Drain delivered everything")
	}
}

// TestCompactedQueueTailsAreCleared: after a step that leaves residue
// in both pending queues, the slots past each queue's length hold
// nothing — no stale *Recv pinning its slab, no stale message pinning
// its payload.
func TestCompactedQueueTailsAreCleared(t *testing.T) {
	rt := New(Config{GPUs: 2})
	for tag := envelope.Tag(0); tag < 4; tag++ {
		if err := rt.Send(0, 1, tag, 0, []byte{byte(tag)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tag := range []envelope.Tag{0, 1, 10, 11} {
		if _, err := rt.PostRecv(1, 0, tag, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Progress(); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	msgs, recvs := rt.pendingMsgs[1], rt.pendingRecvs[1]
	if len(msgs) != 2 || len(recvs) != 2 {
		t.Fatalf("residue: %d messages, %d receives; want 2 and 2", len(msgs), len(recvs))
	}
	for i, r := range recvs[len(recvs):cap(recvs)] {
		if r != nil {
			t.Errorf("pendingRecvs[1] tail slot %d holds a stale handle", len(recvs)+i)
		}
	}
	for i, m := range msgs[len(msgs):cap(msgs)] {
		if !reflect.ValueOf(m).IsZero() {
			t.Errorf("pendingMsgs[1] tail slot %d holds a stale message %+v", len(msgs)+i, m)
		}
	}
}
