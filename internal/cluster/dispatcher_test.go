package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"simtmp/internal/mpx"
	"simtmp/internal/proto"
)

// newTestDispatcher builds a loopback dispatcher with test-friendly
// liveness settings (fast sweeps, generous timeout — tests drive
// deadline expiry explicitly via ExpireWorkers).
func newTestDispatcher(t *testing.T, lb *Loopback, journal string) *Dispatcher {
	t.Helper()
	d, err := NewDispatcher(DispatcherConfig{
		Transport:        lb,
		Addr:             "hub",
		JournalPath:      journal,
		HeartbeatTimeout: time.Hour,
		SweepInterval:    time.Hour,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatalf("NewDispatcher: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func startTestWorkers(t *testing.T, lb *Loopback, n, capacity int) []*Worker {
	t.Helper()
	workers := make([]*Worker, n)
	for i := range workers {
		w, err := StartWorker(WorkerConfig{
			Transport:         lb,
			Addr:              "hub",
			Name:              "w",
			Capacity:          capacity,
			HeartbeatInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartWorker %d: %v", i, err)
		}
		workers[i] = w
	}
	return workers
}

func TestDispatcherRunsJobsOverLoopback(t *testing.T) {
	lb := NewLoopback()
	d := newTestDispatcher(t, lb, "")
	startTestWorkers(t, lb, 2, 1)
	jobs := ChaosFleetJobs([]mpx.Level{mpx.Unordered}, 9, 60, 20)
	if _, err := d.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	rep, err := d.WaitAll(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunLocal(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.CanonicalJSON(), local.CanonicalJSON()) {
		t.Error("dispatcher-run report differs from in-process run")
	}
	st := d.Snapshot()
	if st.Done != len(jobs) || st.Failed != 0 {
		t.Errorf("status %+v: want %d done, 0 failed", st, len(jobs))
	}
}

// TestDispatcherDuplicateResultDelivery drives a hand-rolled framed
// worker that delivers its result twice: the dispatcher must keep the
// first, count the duplicate, and not double-merge.
func TestDispatcherDuplicateResultDelivery(t *testing.T) {
	lb := NewLoopback()
	d := newTestDispatcher(t, lb, "")
	c, err := lb.Dial("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := sendMsg(c, msgHello, helloMsg{Name: "dup", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.Type != msgWelcome {
		t.Fatalf("welcome: type %d err %v", f.Type, err)
	}
	jobs := []JobSpec{{Kind: KindChaos, Level: int(mpx.Unordered), Seed: 2, Count: 5, Name: "chaos/dup"}}
	ids, err := d.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadFrame()
	if err != nil || f.Type != msgAssign {
		t.Fatalf("assign: type %d err %v", f.Type, err)
	}
	a, err := decodeMsg[assignMsg](f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunJob(a.Job, JobHooks{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sendMsg(c, msgResult, resultMsg{Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := d.WaitAll(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, d, func(st Status) bool { return st.DupResults == 1 })
	if rep.Jobs != 1 {
		t.Errorf("merged %d jobs, want 1 (duplicate must not double-merge)", rep.Jobs)
	}
	if st := d.Snapshot(); st.Done != 1 || st.DupResults != 1 {
		t.Errorf("status %+v: want 1 done, 1 duplicate", st)
	}
	_ = ids
}

// waitSnapshot polls until the predicate holds (frames may still be in
// flight when WaitAll returns).
func waitSnapshot(t *testing.T, d *Dispatcher, ok func(Status) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ok(d.Snapshot()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("snapshot predicate never held; last: %+v", d.Snapshot())
}

// TestDispatcherCorruptFrameDropsWorker registers a worker at the raw
// byte level, then sends a bit-flipped frame: the dispatcher must
// detect the corruption, count it, and treat the worker as lost —
// requeueing its in-flight job.
func TestDispatcherCorruptFrameDropsWorker(t *testing.T) {
	lb := NewLoopback()
	d := newTestDispatcher(t, lb, "")
	rw, err := lb.DialBytes("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	hello, _ := json.Marshal(helloMsg{Name: "evil", Capacity: 1})
	raw, err := proto.AppendFrame(nil, proto.Frame{Type: msgHello, Payload: hello})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Write(raw); err != nil {
		t.Fatal(err)
	}
	fr := proto.NewFrameReader(rw, 0)
	if f, err := fr.Read(); err != nil || f.Type != msgWelcome {
		t.Fatalf("welcome: type %d err %v", f.Type, err)
	}
	if _, err := d.Submit([]JobSpec{{Kind: KindBench, Bench: BenchFig4, Name: "bench/fig4"}}); err != nil {
		t.Fatal(err)
	}
	if f, err := fr.Read(); err != nil || f.Type != msgAssign {
		t.Fatalf("assign: type %d err %v", f.Type, err)
	}
	// A heartbeat with one payload bit flipped after sealing.
	beat, _ := json.Marshal(heartbeatMsg{})
	raw, err = proto.AppendFrame(nil, proto.Frame{Type: msgHeartbeat, Payload: beat})
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if _, err := rw.Write(raw); err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, d, func(st Status) bool {
		return st.CorruptFrames == 1 && st.WorkersLost == 1 && st.Queued == 1
	})
	// A healthy worker picks the requeued job up and the run completes.
	startTestWorkers(t, lb, 1, 1)
	if _, err := d.WaitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := d.Snapshot(); st.Reassigned != 1 || st.Done != 1 {
		t.Errorf("status %+v: want the corrupted worker's job reassigned and done", st)
	}
}

// TestDispatcherTruncatedFirstFrame half-writes a frame and hangs up:
// the dispatcher must shrug the connection off without disturbing
// state.
func TestDispatcherTruncatedFirstFrame(t *testing.T) {
	lb := NewLoopback()
	d := newTestDispatcher(t, lb, "")
	rw, err := lb.DialBytes("hub")
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := json.Marshal(helloMsg{Name: "trunc", Capacity: 1})
	raw, err := proto.AppendFrame(nil, proto.Frame{Type: msgHello, Payload: hello})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	rw.Close()
	// The dispatcher keeps serving afterwards.
	startTestWorkers(t, lb, 1, 1)
	if _, err := d.Submit([]JobSpec{{Kind: KindBench, Bench: BenchTable2, Name: "bench/table2"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WaitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := d.Snapshot(); len(st.Workers) != 1 {
		t.Errorf("truncated stranger must not register: %+v", st.Workers)
	}
}

// TestDispatcherHeartbeatDeadline registers a worker that never beats
// and expires it via a synthetic clock: its in-flight job requeues.
func TestDispatcherHeartbeatDeadline(t *testing.T) {
	lb := NewLoopback()
	d, err := NewDispatcher(DispatcherConfig{
		Transport:        lb,
		Addr:             "hub",
		HeartbeatTimeout: time.Hour,
		SweepInterval:    time.Hour, // sweeps driven manually below
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := lb.Dial("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := sendMsg(c, msgHello, helloMsg{Name: "silent", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.Type != msgWelcome {
		t.Fatalf("welcome: type %d err %v", f.Type, err)
	}
	if _, err := d.Submit([]JobSpec{{Kind: KindChaos, Level: int(mpx.FullMPI), Seed: 1, Count: 5, Name: "chaos/hb"}}); err != nil {
		t.Fatal(err)
	}
	waitSnapshot(t, d, func(st Status) bool { return st.Assigned == 1 })
	d.ExpireWorkers(time.Now()) // within deadline: nothing happens
	if st := d.Snapshot(); st.WorkersLost != 0 {
		t.Fatalf("premature expiry: %+v", st)
	}
	d.ExpireWorkers(time.Now().Add(2 * time.Hour)) // past deadline
	waitSnapshot(t, d, func(st Status) bool {
		return st.WorkersLost == 1 && st.Queued == 1 && len(st.Workers) == 0
	})
	startTestWorkers(t, lb, 1, 1)
	if _, err := d.WaitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherRestartFromJournal kills a dispatcher with work still
// queued; a restart on the same journal resumes it, and the final
// merged report is byte-identical to an unfailed in-process run.
func TestDispatcherRestartFromJournal(t *testing.T) {
	lb := NewLoopback()
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	jobs := append(
		BenchSweepJobs([]string{BenchFig4, BenchTable2}),
		ChaosFleetJobs([]mpx.Level{mpx.Unordered, mpx.FullMPI}, 4, 40, 20)...,
	)

	d1 := newTestDispatcher(t, lb, journal)
	if _, err := d1.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	// No workers: everything stays queued; the journal has the specs.
	if st := d1.Snapshot(); st.Queued != len(jobs) {
		t.Fatalf("queued %d, want %d", st.Queued, len(jobs))
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn final append — the restart must drop only the
	// partial line.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","result":{"jo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	lb2 := NewLoopback()
	d2 := newTestDispatcher(t, lb2, journal)
	if st := d2.Snapshot(); st.Jobs != len(jobs) || st.Queued != len(jobs) {
		t.Fatalf("restored %d jobs (%d queued), want %d", st.Jobs, st.Queued, len(jobs))
	}
	startTestWorkers(t, lb2, 2, 1)
	rep, err := d2.WaitAll(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunLocal(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.CanonicalJSON(), local.CanonicalJSON()) {
		t.Error("restarted-dispatcher report differs from in-process run")
	}

	// A third restart sees every job done and rebuilds the same report
	// from journaled results alone.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	lb3 := NewLoopback()
	d3 := newTestDispatcher(t, lb3, journal)
	if st := d3.Snapshot(); st.Done != len(jobs) || st.Queued != 0 {
		t.Fatalf("second restart: %+v, want all %d done", st, len(jobs))
	}
	rep3, err := d3.WaitAll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep3.CanonicalJSON(), local.CanonicalJSON()) {
		t.Error("journal-restored report differs from in-process run")
	}
}

// TestDispatcherMaxAttempts: a job whose every assignment dies must
// eventually fail instead of cycling forever.
func TestDispatcherMaxAttempts(t *testing.T) {
	lb := NewLoopback()
	d, err := NewDispatcher(DispatcherConfig{
		Transport:        lb,
		Addr:             "hub",
		HeartbeatTimeout: time.Hour,
		SweepInterval:    time.Hour,
		MaxAttempts:      2,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Submit([]JobSpec{{Kind: KindChaos, Level: int(mpx.Unordered), Seed: 1, Count: 5, Name: "chaos/doomed"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if d.Snapshot().Failed == 1 {
			break
		}
		c, err := lb.Dial("hub")
		if err != nil {
			t.Fatal(err)
		}
		if err := sendMsg(c, msgHello, helloMsg{Name: "crashy", Capacity: 1}); err != nil {
			t.Fatal(err)
		}
		if f, err := c.ReadFrame(); err != nil || f.Type != msgWelcome {
			t.Fatalf("welcome %d: type %d err %v", i, f.Type, err)
		}
		f, err := c.ReadFrame()
		if err != nil || f.Type != msgAssign {
			t.Fatalf("round %d: assign: type %d err %v", i, f.Type, err)
		}
		c.Close() // die with the job in flight
		waitSnapshot(t, d, func(st Status) bool { return len(st.Workers) == 0 })
	}
	waitSnapshot(t, d, func(st Status) bool { return st.Failed == 1 })
	if _, err := d.WaitAll(5 * time.Second); err == nil {
		t.Fatal("WaitAll should report the failed job")
	}
}

// TestDispatcherDrainStopsAssignment: drained dispatchers finish
// nothing new; queued jobs survive for a later dispatcher.
func TestDispatcherDrain(t *testing.T) {
	lb := NewLoopback()
	d := newTestDispatcher(t, lb, "")
	workers := startTestWorkers(t, lb, 2, 1)
	jobs := ChaosFleetJobs([]mpx.Level{mpx.Unordered}, 3, 40, 10)
	if _, err := d.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	for _, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("drained worker exit: %v", err)
		}
		if !w.Drained() {
			t.Error("worker should report a drained exit")
		}
	}
	// A worker's exit reaches the dispatcher asynchronously: its last
	// result and the disconnect are read after Wait returns here.
	waitSnapshot(t, d, func(st Status) bool { return len(st.Workers) == 0 })
	st := d.Snapshot()
	if !st.Draining {
		t.Error("snapshot should show draining")
	}
	if st.Done+st.Queued != len(jobs) || len(st.Workers) != 0 {
		t.Errorf("after drain: %+v (done+queued should cover all %d jobs, no workers)", st, len(jobs))
	}
}
