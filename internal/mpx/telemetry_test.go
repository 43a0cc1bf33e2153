package mpx

import (
	"bytes"
	"strings"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/telemetry"
)

func TestTelemetryDisabledByDefault(t *testing.T) {
	rt := New(Config{GPUs: 2})
	if rt.Recorder() != nil {
		t.Fatal("default runtime has a live recorder")
	}
	// The drain path must work with every telemetry handle nil.
	if err := rt.Send(0, 1, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.PostRecv(1, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if ok, err := rt.Drain(100); err != nil || !ok {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
}

func TestTelemetryRecordsRuntimeEvents(t *testing.T) {
	rt := New(Config{
		GPUs:      2,
		Telemetry: &telemetry.Config{Enabled: true, BufferSize: 256},
	})
	rec := rt.Recorder()
	if rec == nil {
		t.Fatal("telemetry enabled but recorder nil")
	}
	if rec.Tracks() != 2 {
		t.Fatalf("recorder has %d tracks, want 2 (one per GPU)", rec.Tracks())
	}
	for i := 0; i < 5; i++ {
		if err := rt.Send(0, 1, envelope.Tag(i), 1, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.PostRecv(1, 0, envelope.Tag(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := rt.Drain(200); err != nil || !ok {
		t.Fatalf("Drain = %v, %v", ok, err)
	}

	names := map[string]int{}
	for _, ev := range rec.Events() {
		names[telemetry.NameOf(ev.Name)]++
	}
	for _, want := range []string{"mpx.send", "mpx.match", "match.pass", "umq.depth", "simt.occupancy"} {
		if names[want] == 0 {
			t.Errorf("no %q events recorded; got %v", want, names)
		}
	}
	if got := rec.TrackName(1); got != "GPU 1" {
		t.Errorf("track 1 named %q, want GPU 1", got)
	}

	snaps := rec.Metrics().Snapshots()
	byName := map[string]telemetry.Snapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	if s := byName["mpx.sends"]; s.Value != 5 {
		t.Errorf("mpx.sends metric = %v, want 5", s.Value)
	}
	if s := byName["mpx.umq.depth"]; s.Value == 0 {
		t.Errorf("mpx.umq.depth histogram empty: %+v", s)
	}
}

// TestSnapshotAtFixedSimTimeDeterministic pins the copy-on-read
// determinism contract end to end: a snapshot taken after a fixed
// number of progress steps of a seeded faulty workload exports
// byte-identical trace and summary documents on every replay.
func TestSnapshotAtFixedSimTimeDeterministic(t *testing.T) {
	run := func() telemetry.Capture {
		rt := New(Config{
			GPUs: 2,
			Fault: &fault.Config{
				Seed:    7,
				AckDrop: 0.5,
				Drop:    0.2,
			},
			Telemetry: &telemetry.Config{Enabled: true, BufferSize: 1024},
		})
		for i := 0; i < 24; i++ {
			if err := rt.Send(0, 1, envelope.Tag(i), 1, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.PostRecv(1, 0, envelope.Tag(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		// A fixed number of progress steps lands every replay on the
		// same simulated time, mid-drain.
		for step := 0; step < 40; step++ {
			if err := rt.Progress(); err != nil {
				t.Fatal(err)
			}
		}
		return rt.Recorder().Snapshot()
	}

	c1, c2 := run(), run()
	if c1.Clock == 0 {
		t.Fatal("snapshot clock is zero; the workload never progressed")
	}
	if c1.Clock != c2.Clock {
		t.Fatalf("replay diverged: clock %v vs %v", c1.Clock, c2.Clock)
	}
	if c1.Emitted != c2.Emitted || c1.Dropped != c2.Dropped {
		t.Fatalf("replay diverged: emitted %d/%d vs %d/%d",
			c1.Emitted, c1.Dropped, c2.Emitted, c2.Dropped)
	}
	var t1, t2, s1, s2 bytes.Buffer
	if err := c1.WriteTrace(&t1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteTrace(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Error("snapshot traces differ across replays")
	}
	if err := c1.WriteSummary(&s1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteSummary(&s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Errorf("snapshot summaries differ across replays:\n%s\n---\n%s", s1.String(), s2.String())
	}
}

func TestTelemetryCorrelatesFaultsAndRetransmits(t *testing.T) {
	// A heavy ack-drop mix forces retransmissions deterministically at
	// this seed/volume; every retransmit must be preceded by fault
	// markers on the same simulated-time axis.
	rt := New(Config{
		GPUs: 2,
		Fault: &fault.Config{
			Seed:    7,
			AckDrop: 0.5,
			Drop:    0.2,
		},
		Telemetry: &telemetry.Config{Enabled: true, BufferSize: 1024},
	})
	for i := 0; i < 24; i++ {
		if err := rt.Send(0, 1, envelope.Tag(i), 1, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.PostRecv(1, 0, envelope.Tag(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := rt.Drain(600); err != nil || !ok {
		t.Fatalf("Drain = %v, %v", ok, err)
	}
	if rt.Stats().Retries == 0 {
		t.Fatal("fault mix produced no retries; pick a different seed")
	}

	var faults, retransmits, matches int
	var lastSim float64
	for _, ev := range rt.Recorder().Events() {
		if ev.Sim < lastSim {
			t.Fatalf("events not in simulated-time order: %v after %v", ev.Sim, lastSim)
		}
		lastSim = ev.Sim
		switch name := telemetry.NameOf(ev.Name); {
		case strings.HasPrefix(name, "fault."):
			faults++
		case name == "mpx.retransmit":
			retransmits++
		case name == "match.pass":
			matches++
		}
	}
	if faults == 0 || retransmits == 0 || matches == 0 {
		t.Errorf("trace lacks correlation: %d fault markers, %d retransmits, %d match passes",
			faults, retransmits, matches)
	}
	checkCountersFollowStats(t, rt, "after the faulty drain")

	var buf bytes.Buffer
	if err := rt.Recorder().WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mpx.retries") {
		t.Errorf("summary missing mpx.retries:\n%s", buf.String())
	}
}

// TestPersistentTelemetryDeterministicAcrossEngineWorkers pins the
// seal-cache observability contract: a persistent workload (seal,
// cached re-fires, one forced invalidation) exports byte-identical
// trace and summary documents whether the matching engines run
// sequentially or sharded across host workers, and the
// match.cache.* events appear on the simulated-time axis.
func TestPersistentTelemetryDeterministicAcrossEngineWorkers(t *testing.T) {
	run := func(workers int) telemetry.Capture {
		rt := New(Config{
			GPUs:          2,
			EngineWorkers: workers,
			Telemetry:     &telemetry.Config{Enabled: true, BufferSize: 4096},
		})
		ps, err := rt.SendInit(0, 1, 3, 0, []byte("persistent payload"))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := rt.RecvInit(1, 0, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			if k == 3 {
				// A wildcard post on the sealed shadow plus its matching
				// send: forces one invalidation mid-run.
				if _, err := rt.PostRecv(1, envelope.AnySource, 3, 0); err != nil {
					t.Fatal(err)
				}
				if err := rt.Send(0, 1, 3, 0, []byte("inj")); err != nil {
					t.Fatal(err)
				}
			}
			if err := pr.Start(); err != nil {
				t.Fatal(err)
			}
			if err := ps.Start(); err != nil {
				t.Fatal(err)
			}
			if ok, err := rt.Drain(200); err != nil || !ok {
				t.Fatalf("iter %d: Drain = %v, %v", k, ok, err)
			}
		}
		st := rt.Stats()
		if st.CacheSeals == 0 || st.CacheHits == 0 || st.CacheInvalidations == 0 {
			t.Fatalf("workload did not exercise the cache: %+v", st)
		}
		var seals, hits, invalidates int
		for _, ev := range rt.Recorder().Events() {
			switch ev.Name {
			case evCacheSeal:
				seals++
			case evCacheHit:
				hits++
			case evCacheInvalidate:
				invalidates++
			}
		}
		if seals != st.CacheSeals || hits != st.CacheHits || invalidates != st.CacheInvalidations {
			t.Fatalf("event counts %d/%d/%d do not mirror stats %d/%d/%d",
				seals, hits, invalidates, st.CacheSeals, st.CacheHits, st.CacheInvalidations)
		}
		return rt.Recorder().Snapshot()
	}

	seq, par := run(1), run(4)
	var ts, tp, ss, sp bytes.Buffer
	if err := seq.WriteTrace(&ts); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteTrace(&tp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ts.Bytes(), tp.Bytes()) {
		t.Error("persistent trace bytes differ between sequential and parallel engines")
	}
	if err := seq.WriteSummary(&ss); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteSummary(&sp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ss.Bytes(), sp.Bytes()) {
		t.Errorf("persistent summaries differ between sequential and parallel engines:\n%s\n---\n%s",
			ss.String(), sp.String())
	}
}
