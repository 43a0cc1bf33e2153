package mpx

import (
	"errors"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/telemetry"
)

// TestCreditWindowBoundsUMQ pins the tentpole invariant: with UMQCap
// configured, a receiver's unexpected-message queue never exceeds the
// effective cap (creditWindow × senders) no matter how hard the sender
// pushes, and every send is still delivered once the receives post.
func TestCreditWindowBoundsUMQ(t *testing.T) {
	const total = 500
	rt := New(Config{Level: FullMPI, GPUs: 2, UMQCap: 8})
	fc := rt.FlowControl()
	if !fc.Active || fc.CreditWindow != 8 || fc.UMQCapEffective != 8 {
		t.Fatalf("flow control info = %+v, want active window 8", fc)
	}
	for i := 0; i < total; i++ {
		if err := rt.Send(0, 1, envelope.Tag(i), 0, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// No receives posted: the unexpected queue must saturate at the
	// effective cap and hold there.
	for step := 0; step < 200; step++ {
		if err := rt.Progress(); err != nil {
			t.Fatalf("progress: %v", err)
		}
		if um := rt.Stats().Unmatched; um > fc.UMQCapEffective {
			t.Fatalf("step %d: unexpected queue %d exceeds cap %d", step, um, fc.UMQCapEffective)
		}
	}
	if st := rt.Stats(); st.CreditStalls == 0 {
		t.Fatalf("expected credit stalls with %d sends against window %d: %+v", total, fc.CreditWindow, st)
	}
	if um := rt.Stats().Unmatched; um != fc.UMQCapEffective {
		t.Fatalf("saturated unexpected queue = %d, want %d", um, fc.UMQCapEffective)
	}
	// Now post all receives: flow control must release the backlog.
	recvs := make([]*Recv, total)
	for i := 0; i < total; i++ {
		r, err := rt.PostRecv(1, 0, envelope.Tag(i), 0)
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		recvs[i] = r
	}
	if ok, err := rt.Drain(100_000); err != nil || !ok {
		t.Fatalf("drain: ok=%v err=%v", ok, err)
	}
	for i, r := range recvs {
		if !r.Done() {
			t.Fatalf("recv %d not delivered", i)
		}
	}
	if st := rt.Stats(); st.Matches != total || st.Sheds != 0 {
		t.Fatalf("matches/sheds = %d/%d, want %d/0 (no staging cap ⇒ no sheds)", st.Matches, st.Sheds, total)
	}
}

// TestShedReject pins the reject policy: once credits and the bounded
// staging buffer are exhausted, Send fails with the typed
// ErrBackpressure, burns no sequence number, and every *accepted* send
// is still delivered exactly once.
func TestShedReject(t *testing.T) {
	const offered = 200
	rt := New(Config{Level: FullMPI, GPUs: 2, UMQCap: 4, StagingCap: 8, Shed: ShedReject})
	accepted := 0
	var tags []envelope.Tag
	for i := 0; i < offered; i++ {
		err := rt.Send(0, 1, envelope.Tag(i), 0, nil)
		switch {
		case err == nil:
			accepted++
			tags = append(tags, envelope.Tag(i))
		case errors.Is(err, ErrBackpressure):
		default:
			t.Fatalf("send %d: unexpected error %v", i, err)
		}
	}
	st := rt.Stats()
	if st.ShedRejects == 0 || st.ShedRejects != offered-accepted {
		t.Fatalf("shed rejects = %d, accepted = %d, offered = %d", st.ShedRejects, accepted, offered)
	}
	if st.Sends != accepted {
		t.Fatalf("sends = %d, want accepted count %d", st.Sends, accepted)
	}
	if st.ShedDrops != 0 {
		t.Fatalf("reject policy parked %d frames", st.ShedDrops)
	}
	for _, tag := range tags {
		if _, err := rt.PostRecv(1, 0, tag, 0); err != nil {
			t.Fatalf("post tag %d: %v", tag, err)
		}
	}
	if ok, err := rt.Drain(100_000); err != nil || !ok {
		t.Fatalf("drain: ok=%v err=%v", ok, err)
	}
	if st := rt.Stats(); st.Matches != accepted || st.Duplicates != 0 {
		t.Fatalf("matches/dups = %d/%d, want %d/0", st.Matches, st.Duplicates, accepted)
	}
}

// TestShedDropPoliciesRecover pins the drop policies: every accepted
// send is delivered exactly once even when frames are shed, each shed
// is recovered (NACK or deadline probe), and the ledger drains to
// empty: ShedDrops == ShedRecovered at quiescence.
func TestShedDropPoliciesRecover(t *testing.T) {
	for _, policy := range []ShedPolicy{ShedDropOldest, ShedDropNewest} {
		t.Run(policy.String(), func(t *testing.T) {
			const total = 300
			rt := New(Config{Level: FullMPI, GPUs: 2, UMQCap: 4, StagingCap: 8, Shed: policy})
			for i := 0; i < total; i++ {
				if err := rt.Send(0, 1, envelope.Tag(i), 0, nil); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			mid := rt.Stats()
			if mid.Sends != total {
				t.Fatalf("sends = %d, want %d (drop policies accept every send)", mid.Sends, total)
			}
			if mid.ShedDrops == 0 {
				t.Fatalf("no sheds with %d sends against staging cap 8: %+v", total, mid)
			}
			recvs := make([]*Recv, total)
			for i := 0; i < total; i++ {
				r, err := rt.PostRecv(1, 0, envelope.Tag(i), 0)
				if err != nil {
					t.Fatalf("post %d: %v", i, err)
				}
				recvs[i] = r
			}
			if ok, err := rt.Drain(100_000); err != nil || !ok {
				t.Fatalf("drain: ok=%v err=%v", ok, err)
			}
			st := rt.Stats()
			if st.Matches != total || st.Duplicates != 0 {
				t.Fatalf("matches/dups = %d/%d, want %d/0", st.Matches, st.Duplicates, total)
			}
			if st.ShedRecovered != st.ShedDrops {
				t.Fatalf("shed ledger unbalanced: parked %d, recovered %d", st.ShedDrops, st.ShedRecovered)
			}
			for i, r := range recvs {
				if !r.Done() {
					t.Fatalf("recv %d not delivered", i)
				}
			}
		})
	}
}

// TestNackRecoversShedFrames pins the NACK path specifically. With the
// credit window binding, a shed gap can never be exposed (everything
// behind it is credit-blocked too), so recovery falls to the deadline
// probe; here the *ack* window binds instead, so frames beyond the
// parked gap do reach the receiver out of order, the gap scan NACKs
// the missing sequences, and the sender recovers them immediately —
// long before the deadline backstop.
func TestNackRecoversShedFrames(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2, Window: 8, StagingCap: 4, Shed: ShedDropOldest})
	const total = 30
	for i := 0; i < total; i++ {
		if err := rt.Send(0, 1, envelope.Tag(i), 0, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if st := rt.Stats(); st.ShedDrops == 0 {
		t.Fatalf("burst against window 8 + staging 4 shed nothing: %+v", st)
	}
	// A few steps: acks open the window, the staged tail transmits past
	// the parked gap, and the receiver's gap scan must NACK it back.
	for i := 0; i < 4; i++ {
		if err := rt.Progress(); err != nil {
			t.Fatalf("progress: %v", err)
		}
	}
	st := rt.Stats()
	if st.Nacks == 0 || st.NackRetransmits == 0 {
		t.Fatalf("gap never NACKed: %+v", st)
	}
	for i := 0; i < total; i++ {
		if _, err := rt.PostRecv(1, 0, envelope.Tag(i), 0); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if ok, err := rt.Drain(100_000); err != nil || !ok {
		t.Fatalf("drain: ok=%v err=%v", ok, err)
	}
	if st := rt.Stats(); st.Matches != total || st.Duplicates != 0 || st.ShedRecovered != st.ShedDrops {
		t.Fatalf("recovery incomplete: matches=%d dups=%d parked=%d recovered=%d",
			st.Matches, st.Duplicates, st.ShedDrops, st.ShedRecovered)
	}
}

// TestPostRecvPRQCap pins the bounded posted-receive queue: the
// (PRQCap+1)-th post fails typed, and the queue recovers room as
// receives deliver.
func TestPostRecvPRQCap(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2, PRQCap: 4})
	for i := 0; i < 4; i++ {
		if _, err := rt.PostRecv(1, 0, envelope.Tag(i), 0); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if _, err := rt.PostRecv(1, 0, envelope.Tag(99), 0); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("over-cap post error = %v, want ErrBackpressure", err)
	}
	if st := rt.Stats(); st.RecvRejects != 1 || st.PostedRecvs != 4 {
		t.Fatalf("recv rejects/posted = %d/%d, want 1/4", st.RecvRejects, st.PostedRecvs)
	}
	// Deliver one and the queue has room again.
	if err := rt.Send(0, 1, envelope.Tag(0), 0, nil); err != nil {
		t.Fatalf("send: %v", err)
	}
	if ok, err := rt.Drain(10_000); err != nil {
		t.Fatalf("drain: %v", err)
	} else if ok {
		t.Fatalf("drain claims all 4 receives delivered after 1 send")
	}
	if _, err := rt.PostRecv(1, 0, envelope.Tag(100), 0); err != nil {
		t.Fatalf("post after delivery freed room: %v", err)
	}
}

// TestHealthStateMachine drives one endpoint through the full overload
// arc — Healthy at idle, Shedding under sustained 2× pressure, back to
// Healthy after the backlog drains — and checks the hysteresis
// bookkeeping (transitions counted, time accrued in every state the
// endpoint passed through).
func TestHealthStateMachine(t *testing.T) {
	rt := New(Config{Level: FullMPI, GPUs: 2, UMQCap: 4, StagingCap: 4, Shed: ShedDropOldest})
	if h, _ := rt.Health(0); h.State != Healthy || h.Occupancy != 0 {
		t.Fatalf("initial health = %+v, want Healthy/0", h)
	}
	// Overload phase: blast sends with no receives posted.
	for i := 0; i < 200; i++ {
		if err := rt.Send(0, 1, envelope.Tag(i), 0, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := rt.Progress(); err != nil {
			t.Fatalf("progress: %v", err)
		}
	}
	if h, _ := rt.Health(0); h.State != Shedding {
		t.Fatalf("sender health under sustained overload = %v, want Shedding", h.State)
	}
	// Recovery phase: post everything and drain.
	for i := 0; i < 200; i++ {
		if _, err := rt.PostRecv(1, 0, envelope.Tag(i), 0); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if ok, err := rt.Drain(100_000); err != nil || !ok {
		t.Fatalf("drain: ok=%v err=%v", ok, err)
	}
	// The drain ends when the last receive delivers; a few idle steps
	// let the Recovering endpoint earn its way back to Healthy.
	for i := 0; i < 20; i++ {
		if err := rt.Progress(); err != nil {
			t.Fatalf("idle progress: %v", err)
		}
	}
	if h, _ := rt.Health(0); h.State != Healthy {
		t.Fatalf("post-drain health = %v, want Healthy", h.State)
	}
	st := rt.Stats()
	if st.StateTransitions < 3 {
		t.Errorf("state transitions = %d, want ≥ 3 (Healthy→Shedding→Recovering→Healthy)", st.StateTransitions)
	}
	if st.SheddingSeconds <= 0 || st.RecoveringSeconds <= 0 || st.HealthySeconds <= 0 {
		t.Errorf("time-in-state not accrued across the arc: %+v", st)
	}
	// Per-step accrual identity: every endpoint accrues one poll per
	// progress step, in exactly one state.
	got := st.HealthySeconds + st.CongestedSeconds + st.SheddingSeconds + st.RecoveringSeconds
	want := float64(st.ProgressSteps) * rt.Poll() * float64(rt.GPUs())
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("time-in-state sum %v != steps×poll×gpus %v", got, want)
	}
}

// TestFlowControlDeterminism replays the same capped overload workload
// across engine execution modes: every overload counter must come out
// identical — the shed sequence is part of the deterministic contract.
func TestFlowControlDeterminism(t *testing.T) {
	run := func(workers int) Stats {
		rt := New(Config{
			Level: FullMPI, GPUs: 4, UMQCap: 8, StagingCap: 4, Shed: ShedDropOldest,
			EngineWorkers: workers,
			Fault:         &fault.Config{Seed: 11, Drop: 0.02, Duplicate: 0.01, SlowReceiver: 0.05},
		})
		const total = 400
		for i := 0; i < total; i++ {
			src, dst := i%4, (i+1)%4
			if err := rt.Send(src, dst, envelope.Tag(i), 0, nil); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			if i%3 == 0 {
				if err := rt.Progress(); err != nil {
					t.Fatalf("progress: %v", err)
				}
			}
		}
		for i := 0; i < total; i++ {
			src, dst := i%4, (i+1)%4
			if _, err := rt.PostRecv(dst, envelope.Rank(src), envelope.Tag(i), 0); err != nil {
				t.Fatalf("post %d: %v", i, err)
			}
		}
		if ok, err := rt.Drain(200_000); err != nil || !ok {
			t.Fatalf("drain: ok=%v err=%v", ok, err)
		}
		return rt.Stats()
	}
	seq, par := run(1), run(0)
	if seq != par {
		t.Fatalf("overload counters diverge across engine modes:\n seq %+v\n par %+v", seq, par)
	}
	if seq.ShedDrops == 0 || seq.NackRetransmits+seq.ShedRecovered == 0 {
		t.Fatalf("workload exercised no shed/recovery machinery: %+v", seq)
	}
	if seq.SlowDrains == 0 {
		t.Fatalf("slow-receiver profile never throttled a drain: %+v", seq)
	}
}

// TestResetStatsOverloadCounters audits the overload plane's
// accounting: after an overloaded warmup, ResetStats must re-base every
// shed/credit/state counter, the merged SlowDrains counter, the
// registry counters published from Stats, and the queue-depth
// histograms, so steady-state windows exclude warmup noise.
func TestResetStatsOverloadCounters(t *testing.T) {
	rt := New(Config{
		Level: FullMPI, GPUs: 2, UMQCap: 4, StagingCap: 4, Shed: ShedDropOldest,
		Fault:     &fault.Config{Seed: 3, SlowReceiver: 0.2, SlowSteps: 4, SlowDrainLimit: 1},
		Telemetry: &telemetry.Config{Enabled: true},
	})
	for i := 0; i < 200; i++ {
		if err := rt.Send(0, 1, envelope.Tag(i), 0, nil); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := rt.Progress(); err != nil {
			t.Fatalf("progress: %v", err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := rt.PostRecv(1, 0, envelope.Tag(i), 0); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if ok, err := rt.Drain(100_000); err != nil || !ok {
		t.Fatalf("drain: ok=%v err=%v", ok, err)
	}
	warm := rt.Stats()
	if warm.Sheds == 0 || warm.CreditStalls == 0 || warm.StateTransitions == 0 || warm.SlowDrains == 0 {
		t.Fatalf("warmup exercised no overload machinery: %+v", warm)
	}
	checkCountersFollowStats(t, rt, "after the overloaded warmup")
	depthN := func() uint64 {
		var n uint64
		for _, s := range rt.Recorder().Metrics().Snapshots() {
			if s.Kind == "histogram" && (s.Name == "mpx.umq.depth" || s.Name == "mpx.prq.depth") {
				n += uint64(s.Dist.N)
			}
		}
		return n
	}
	if depthN() == 0 {
		t.Fatalf("warmup recorded no queue-depth samples")
	}

	rt.ResetStats()
	if zero := rt.Stats(); zero != (Stats{}) {
		t.Errorf("Stats after ResetStats = %+v, want zero value", zero)
	}
	if n := depthN(); n != 0 {
		t.Errorf("queue-depth histograms hold %d samples after ResetStats, want 0", n)
	}
	checkCountersFollowStats(t, rt, "right after ResetStats")

	// Post-reset steady window: uncongested traffic (drained message by
	// message, so no queue ever fills) must account from the new zero
	// with no residue from the overloaded warmup.
	for i := 0; i < 50; i++ {
		if _, err := rt.PostRecv(1, 0, envelope.Tag(1000+i), 0); err != nil {
			t.Fatalf("post: %v", err)
		}
		if err := rt.Send(0, 1, envelope.Tag(1000+i), 0, nil); err != nil {
			t.Fatalf("send: %v", err)
		}
		if ok, err := rt.Drain(100_000); err != nil || !ok {
			t.Fatalf("drain %d: ok=%v err=%v", i, ok, err)
		}
	}
	after := rt.Stats()
	if after.Matches != 50 || after.Sends != 50 {
		t.Errorf("post-reset matches/sends = %d/%d, want 50/50", after.Matches, after.Sends)
	}
	if after.Sheds != 0 || after.ShedDrops != 0 || after.RecvRejects != 0 {
		t.Errorf("post-reset window inherited warmup overload counters: %+v", after)
	}
	checkCountersFollowStats(t, rt, "after the post-reset window")
}

// checkCountersFollowStats asserts that every statCounters row's
// registry counter reads its Stats field (the runtime publishes both
// at step boundaries and from ResetStats).
func checkCountersFollowStats(t *testing.T, rt *Runtime, when string) {
	t.Helper()
	reg, st := rt.Recorder().Metrics(), rt.Stats()
	for _, row := range statCounters {
		if got, want := reg.Counter(row.name).Value(), int64(row.field(&st)); got != want {
			t.Errorf("%s: registry %s = %d, Stats field = %d", when, row.name, got, want)
		}
	}
}

// TestProbesOutOfRangeGPU checks the three probes answer, rather than
// panic, for a GPU index outside [0, GPUs): the would-block probes
// report false (such a send or post fails with a range error, not
// ErrBackpressure) and Health returns an error.
func TestProbesOutOfRangeGPU(t *testing.T) {
	rt := New(Config{GPUs: 2, StagingCap: 1, PRQCap: 1})
	health := func(g int) bool {
		_, err := rt.Health(g)
		return err == nil
	}
	for _, tc := range []struct {
		name string
		got  func() bool
		want bool
	}{
		{"SendWouldBlock(5, 0)", func() bool { return rt.SendWouldBlock(5, 0) }, false},
		{"SendWouldBlock(0, 5)", func() bool { return rt.SendWouldBlock(0, 5) }, false},
		{"SendWouldBlock(-1, 0)", func() bool { return rt.SendWouldBlock(-1, 0) }, false},
		{"PostRecvWouldBlock(5)", func() bool { return rt.PostRecvWouldBlock(5) }, false},
		{"PostRecvWouldBlock(-1)", func() bool { return rt.PostRecvWouldBlock(-1) }, false},
		{"Health(-1) succeeds", func() bool { return health(-1) }, false},
		{"Health(2) succeeds", func() bool { return health(2) }, false},
		{"Health(1) succeeds", func() bool { return health(1) }, true},
	} {
		if got := tc.got(); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
}
