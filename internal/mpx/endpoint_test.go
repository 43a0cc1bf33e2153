package mpx

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/simt"
)

func TestEndpointBounds(t *testing.T) {
	rt := New(Config{GPUs: 2})
	if _, err := rt.Endpoint(-1); err == nil {
		t.Error("Endpoint(-1) accepted")
	}
	if _, err := rt.Endpoint(2); err == nil {
		t.Error("Endpoint(2) accepted on a 2-GPU cluster")
	}
	if _, err := rt.Endpoint(1); err != nil {
		t.Errorf("Endpoint(1): %v", err)
	}
}

func TestEndpointFlatEquivalence(t *testing.T) {
	// The endpoint verbs are the same operations as the flat API: a
	// send through one must deliver to a receive posted through the
	// other.
	rt := New(Config{GPUs: 2})
	ep0, err := rt.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep0.Send(1, 7, 0, []byte("via-endpoint")); err != nil {
		t.Fatal(err)
	}
	r, err := rt.PostRecv(1, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := rt.Drain(100); err != nil || !ok {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
	msg, err := r.Message()
	if err != nil || string(msg.Payload) != "via-endpoint" {
		t.Fatalf("Message = %+v, %v", msg, err)
	}
	if ep0.GPU() != 0 || ep0.Runtime() != rt {
		t.Error("endpoint accessors wrong")
	}
}

func TestStreamOpenCloseLifecycle(t *testing.T) {
	rt := New(Config{Level: StreamOrdered, GPUs: 2})
	ep, err := rt.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Open(envelope.DefaultStream); err == nil {
		t.Error("Open(0) accepted — the default stream is always open")
	}
	if _, err := ep.Open(envelope.MaxStream + 1); err == nil {
		t.Error("Open past MaxStream accepted")
	}
	st, err := ep.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID() != 3 || st.Endpoint() != ep {
		t.Errorf("stream accessors wrong: id=%d", st.ID())
	}
	if _, err := ep.Open(3); err == nil {
		t.Error("double Open(3) accepted")
	}
	if err := st.Send(1, 1, 0, nil); err != nil {
		t.Errorf("send on open stream: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Send(1, 1, 0, nil); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("send after Close: err = %v, want ErrStreamClosed", err)
	}
	if _, err := st.PostRecv(0, 1, 0); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("post after Close: err = %v, want ErrStreamClosed", err)
	}
	if err := st.Close(); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("double Close: err = %v, want ErrStreamClosed", err)
	}
	// The id is free again after Close.
	if _, err := ep.Open(3); err != nil {
		t.Errorf("reopen after Close: %v", err)
	}
	if err := ep.Default().Close(); err == nil {
		t.Error("closing the default stream accepted")
	}
}

func TestStreamQualifiedMatchingIsolation(t *testing.T) {
	// A stream-qualified message must not match a default-stream
	// receive, even a full wildcard — the stream id is part of the
	// envelope predicate at every level.
	rt := New(Config{Level: FullMPI, GPUs: 2})
	ep0, _ := rt.Endpoint(0)
	ep1, _ := rt.Endpoint(1)
	tx, err := ep0.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Send(1, 9, 0, []byte("s2")); err != nil {
		t.Fatal(err)
	}
	r0, err := ep1.PostRecv(envelope.AnySource, envelope.AnyTag, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := rt.Drain(50); ok {
		t.Fatal("default-stream wildcard claimed a stream-2 message")
	}
	if r0.Done() {
		t.Fatal("cross-stream delivery")
	}
	rx, err := ep1.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rx.PostRecv(envelope.AnySource, envelope.AnyTag, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := rt.Drain(100); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("r0 can never deliver — Drain should fixed-point at false")
	}
	if !r2.Done() {
		t.Fatal("stream-2 receive not delivered")
	}
	msg, _ := r2.Message()
	if string(msg.Payload) != "s2" {
		t.Fatalf("payload %q", msg.Payload)
	}
}

func TestStreamOrderedEndToEnd(t *testing.T) {
	// Traffic spread over four streams under StreamOrdered: everything
	// delivers, per-stream posted order is preserved, and the engine in
	// play is the stream matcher.
	rt := New(Config{Level: StreamOrdered, GPUs: 2, Streams: 4})
	if rt.EngineName() == "" || rt.Level() != StreamOrdered {
		t.Fatalf("level %v engine %q", rt.Level(), rt.EngineName())
	}
	ep0, _ := rt.Endpoint(0)
	ep1, _ := rt.Endpoint(1)
	const perStream = 8
	var tx, rx [4]*Stream
	var recvs [4][]*Recv
	for s := 1; s < 4; s++ {
		var err error
		if tx[s], err = ep0.Open(envelope.Stream(s)); err != nil {
			t.Fatal(err)
		}
		if rx[s], err = ep1.Open(envelope.Stream(s)); err != nil {
			t.Fatal(err)
		}
	}
	tx[0], rx[0] = ep0.Default(), ep1.Default()
	for i := 0; i < perStream; i++ {
		for s := 0; s < 4; s++ {
			payload := []byte(fmt.Sprintf("s%d-%d", s, i))
			if err := tx[s].Send(1, 5, 0, payload); err != nil {
				t.Fatal(err)
			}
			// Same-tuple receives: posted order within the stream must
			// decide who gets which message.
			r, err := rx[s].PostRecv(envelope.AnySource, 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			recvs[s] = append(recvs[s], r)
		}
	}
	if ok, err := rt.Drain(600); err != nil || !ok {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
	for s := 0; s < 4; s++ {
		for i, r := range recvs[s] {
			msg, err := r.Message()
			if err != nil {
				t.Fatalf("stream %d recv %d: %v", s, i, err)
			}
			want := fmt.Sprintf("s%d-%d", s, i)
			if string(msg.Payload) != want {
				t.Fatalf("stream %d recv %d got %q, want %q (per-stream order violated)",
					s, i, msg.Payload, want)
			}
		}
	}
	st := rt.Stats()
	if st.Matches != 4*perStream {
		t.Fatalf("matches = %d, want %d", st.Matches, 4*perStream)
	}
	if st.StreamSends != 3*perStream {
		t.Fatalf("StreamSends = %d, want %d", st.StreamSends, 3*perStream)
	}
	// A persistent channel's fires on a non-default stream are stream
	// sends too.
	ps, err := tx[3].SendInit(1, 6, 0, []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rx[3].RecvInit(0, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := StartAll(pr, ps); err != nil {
			t.Fatal(err)
		}
		drainOK(t, rt)
	}
	st = rt.Stats()
	if st.Sends != 4*perStream+3 || st.PersistentSends != 3 || st.StreamSends != 3*perStream+3 {
		t.Fatalf("Sends = %d, PersistentSends = %d, StreamSends = %d, want %d, 3, %d",
			st.Sends, st.PersistentSends, st.StreamSends, 4*perStream+3, 3*perStream+3)
	}
}

func TestStreamOrderedCrossStreamRelease(t *testing.T) {
	// Under wire delay, StreamOrdered must release a stream's frames
	// past another stream's gap: CrossStreamReleases observes the
	// relaxation actually happening, and every per-stream order still
	// holds.
	rt := New(Config{
		Level: StreamOrdered, GPUs: 2, Streams: 4,
		Fault: &fault.Config{Seed: 11, Delay: 0.4, MaxDelaySteps: 6},
	})
	ep0, _ := rt.Endpoint(0)
	ep1, _ := rt.Endpoint(1)
	var tx, rx [4]*Stream
	tx[0], rx[0] = ep0.Default(), ep1.Default()
	for s := 1; s < 4; s++ {
		tx[s], _ = ep0.Open(envelope.Stream(s))
		rx[s], _ = ep1.Open(envelope.Stream(s))
	}
	const perStream = 32
	var recvs [4][]*Recv
	for i := 0; i < perStream; i++ {
		for s := 0; s < 4; s++ {
			if err := tx[s].Send(1, 2, 0, []byte(fmt.Sprintf("s%d-%d", s, i))); err != nil {
				t.Fatal(err)
			}
			r, err := rx[s].PostRecv(envelope.AnySource, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			recvs[s] = append(recvs[s], r)
		}
	}
	if ok, err := rt.Drain(2000); err != nil || !ok {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
	for s := 0; s < 4; s++ {
		for i, r := range recvs[s] {
			msg, err := r.Message()
			if err != nil {
				t.Fatalf("stream %d recv %d: %v", s, i, err)
			}
			if want := fmt.Sprintf("s%d-%d", s, i); string(msg.Payload) != want {
				t.Fatalf("stream %d recv %d got %q, want %q", s, i, msg.Payload, want)
			}
		}
	}
	if st := rt.Stats(); st.CrossStreamReleases == 0 {
		t.Fatal("no cross-stream release observed under 40% wire delay — the relaxation never fired")
	}
}

func TestStreamOrderedAdmitsWildcards(t *testing.T) {
	rt := New(Config{Level: StreamOrdered, GPUs: 2})
	if _, err := rt.PostRecv(1, envelope.AnySource, envelope.AnyTag, 0); err != nil {
		t.Fatalf("StreamOrdered rejected wildcards: %v", err)
	}
}

func TestStreamPersistentChannels(t *testing.T) {
	// Persistent channels on a non-default stream: the sealed-cache
	// fast path keys on the packed header, which carries the stream
	// bits, so stream-qualified channels seal and re-fire like any
	// other.
	rt := New(Config{Level: StreamOrdered, GPUs: 2})
	ep0, _ := rt.Endpoint(0)
	ep1, _ := rt.Endpoint(1)
	tx, _ := ep0.Open(5)
	rx, _ := ep1.Open(5)
	ps, err := tx.SendInit(1, 4, 0, []byte("iter"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := rx.RecvInit(0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 5; it++ {
		if err := StartAll(pr, ps); err != nil {
			t.Fatal(err)
		}
		if ok, err := rt.Drain(200); err != nil || !ok {
			t.Fatalf("iteration %d: Drain = %v, %v", it, ok, err)
		}
	}
	if pr.Iterations() != 5 {
		t.Fatalf("iterations = %d", pr.Iterations())
	}
	if st := rt.Stats(); st.CacheHits == 0 {
		t.Errorf("stream-qualified persistent channel never hit the sealed cache: %+v cache stats", st.CacheHits)
	}
	// A closed stream refuses new channel inits.
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.SendInit(1, 6, 0, nil); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("SendInit on closed stream: %v", err)
	}
	if err := rx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.RecvInit(0, 6, 0); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("RecvInit on closed stream: %v", err)
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	n, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.GPUs != 2 || n.Queues != 8 || n.Streams != 8 || n.Window != 64 ||
		n.RetryLimit != 16 || n.StallPatience != 100 || n.Arch == nil {
		t.Fatalf("defaults not applied: %+v", n)
	}
	if n.Streams != 8 {
		t.Fatalf("Streams default = %d", n.Streams)
	}
	// Streams clamps to the wire namespace.
	if c, err := (Config{Streams: 99}).Normalize(); err != nil || c.Streams != int(envelope.MaxStream)+1 {
		t.Fatalf("Streams=99 → %d, %v", c.Streams, err)
	}
	// Queues clamps to what the partitioned engine runs: one warp per
	// partition, at both levels that use it.
	for _, lv := range []Level{NoSourceWildcard, NoUnexpected} {
		c, err := (Config{Level: lv, Queues: 64}).Normalize()
		if err != nil || c.Queues != simt.MaxWarpsPerCTA {
			t.Fatalf("%v Queues=64 → %d, %v", lv, c.Queues, err)
		}
		if want, got := fmt.Sprintf("q=%d)", c.Queues), New(c).EngineName(); !strings.HasSuffix(got, want) {
			t.Fatalf("%v: engine %q, Normalize reports Queues=%d", lv, got, c.Queues)
		}
	}
}

func TestConfigNormalizeRejects(t *testing.T) {
	bad := []Config{
		{GPUs: -1},
		{Queues: -2},
		{Window: -3},
		{Streams: -1},
		{QueueCap: -1},
		{RetryLimit: -1},
		{StallPatience: -7},
		{UMQCap: -1},
		{PRQCap: -9},
		{StagingCap: -1},
		{Level: Level(-1)},
		{Level: StreamOrdered + 1},
		{Shed: ShedPolicy(-1)},
		{Shed: ShedDropNewest + 1},
		{Health: HealthConfig{HighWater: -0.5}},
		{Health: HealthConfig{HighWater: 0.3, LowWater: 0.5}},
	}
	for i, c := range bad {
		if _, err := c.Normalize(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadConfig", i, c, err)
		}
	}
	// New panics on a config Normalize rejects.
	defer func() {
		if recover() == nil {
			t.Error("New(GPUs: -1) did not panic")
		}
	}()
	New(Config{GPUs: -1})
}

// TestConfigNormalizeQuick is the property test: for arbitrary inputs,
// Normalize either rejects with ErrBadConfig or returns a fully
// defaulted config on which Normalize is the identity.
func TestConfigNormalizeQuick(t *testing.T) {
	f := func(level, shed int8, gpus, queues, qcap, streams, window, retry, stall, umq, prq, staging int16, high, low float64) bool {
		cfg := Config{
			Level: Level(level % 8), Shed: ShedPolicy(shed % 5),
			GPUs: int(gpus), Queues: int(queues), QueueCap: int(qcap),
			Streams: int(streams), Window: int(window), RetryLimit: int(retry),
			StallPatience: int(stall), UMQCap: int(umq), PRQCap: int(prq), StagingCap: int(staging),
			Health: HealthConfig{HighWater: high / 100, LowWater: low / 100},
		}
		n, err := cfg.Normalize()
		if err != nil {
			return errors.Is(err, ErrBadConfig)
		}
		if n.GPUs <= 0 || n.Queues <= 0 || n.Queues > simt.MaxWarpsPerCTA || n.Streams <= 0 ||
			n.Streams > int(envelope.MaxStream)+1 || n.Window <= 0 ||
			n.RetryLimit <= 0 || n.StallPatience <= 0 || n.Arch == nil ||
			n.Health.HighWater <= n.Health.LowWater {
			return false
		}
		n2, err2 := n.Normalize()
		return err2 == nil &&
			n2.GPUs == n.GPUs && n2.Queues == n.Queues && n2.Streams == n.Streams &&
			n2.Window == n.Window && n2.RetryLimit == n.RetryLimit &&
			n2.StallPatience == n.StallPatience && n2.Arch == n.Arch &&
			n2.Health == n.Health && n2.Link == n.Link
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
