package telemetry

import (
	"bytes"
	"io"
	"sort"
	"sync"
	"testing"
)

var (
	evSnapInst = Name("test.snap.inst")
	evSnapCtr  = Name("test.snap.ctr")
)

// TestSnapshotConcurrentWithEmission is the -race witness for the
// copy-on-read contract: one goroutine drives the recorder exactly as
// the runtime does (clock advances, emissions, pumps, a live streamer
// draining to a discard writer) while this goroutine snapshots
// continuously. Every capture must be internally consistent.
func TestSnapshotConcurrentWithEmission(t *testing.T) {
	r := New(Config{Enabled: true, Tracks: 2, BufferSize: 256,
		Stream: &StreamConfig{W: io.Discard, Watermark: 64}})
	m := r.Metrics()
	ctr := m.Counter("test.snap.metric")

	const steps = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		clock := 0.0
		for step := 0; step < steps; step++ {
			clock += 1e-7
			r.SetClock(clock)
			for g := 0; g < 2; g++ {
				r.Instant(g, evSnapInst, 0, int64(step), 0, 0)
				r.Counter(g, evSnapCtr, float64(step))
			}
			ctr.Set(int64(step + 1))
			r.Pump()
		}
		if err := r.CloseStream(); err != nil {
			t.Error(err)
		}
	}()

	for i := 0; i < 500; i++ {
		c := r.Snapshot()
		if got := uint64(len(c.Events)); got != c.Emitted-c.Dropped {
			t.Fatalf("snapshot %d: %d events, Emitted %d - Dropped %d = %d",
				i, got, c.Emitted, c.Dropped, c.Emitted-c.Dropped)
		}
		if !sort.SliceIsSorted(c.Events, func(a, b int) bool {
			return c.Events[a].Sim < c.Events[b].Sim
		}) {
			t.Fatalf("snapshot %d: events not in export order", i)
		}
		// Exporting a capture must not touch recorder state.
		if err := c.WriteTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	final := r.Snapshot()
	if final.Emitted != steps*4 {
		t.Errorf("final Emitted = %d, want %d", final.Emitted, steps*4)
	}
	if final.Stream.Events != steps*4 {
		t.Errorf("final Stream.Events = %d, want %d", final.Stream.Events, steps*4)
	}
	if final.Stream.Dropped != 0 {
		t.Errorf("pumped stream dropped %d events", final.Stream.Dropped)
	}
}

// TestSnapshotStableAfterMoreEmission pins copy-on-read: a capture's
// exported bytes must not change however far the recorder progresses
// afterwards — even past a full ring wrap of the snapshotted events.
func TestSnapshotStableAfterMoreEmission(t *testing.T) {
	r := New(Config{Enabled: true, BufferSize: 64})
	r.SetClock(1e-6)
	for i := 0; i < 40; i++ {
		r.Instant(0, evSnapInst, 0, int64(i), 0, 0)
	}
	c := r.Snapshot()
	var before bytes.Buffer
	if err := c.WriteTrace(&before); err != nil {
		t.Fatal(err)
	}
	var sumBefore bytes.Buffer
	if err := c.WriteSummary(&sumBefore); err != nil {
		t.Fatal(err)
	}

	r.SetClock(2e-6)
	for i := 0; i < 200; i++ { // wraps the 64-slot ring entirely
		r.Instant(0, evSnapCtr, 0, int64(i), 0, 0)
	}

	var after, sumAfter bytes.Buffer
	if err := c.WriteTrace(&after); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSummary(&sumAfter); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("capture's trace bytes changed after further emission")
	}
	if !bytes.Equal(sumBefore.Bytes(), sumAfter.Bytes()) {
		t.Error("capture's summary bytes changed after further emission")
	}
	if c.Clock != 1e-6 {
		t.Errorf("capture clock = %g, want the value at capture time", c.Clock)
	}
}

func TestSnapshotNil(t *testing.T) {
	var r *Recorder
	c := r.Snapshot()
	if len(c.Events) != 0 || len(c.Metrics) != 0 || c.Emitted != 0 {
		t.Errorf("nil snapshot not zero: %+v", c)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("zero capture exported nothing; want a valid empty trace")
	}
}
