package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"simtmp/internal/stats"
)

var (
	tName = Name("test.event")
	tArgA = Name("a")
	tArgB = Name("b")
)

func TestNameInterning(t *testing.T) {
	if got := Name("test.event"); got != tName {
		t.Errorf("re-interning returned %d, want %d", got, tName)
	}
	if got := NameOf(tName); got != "test.event" {
		t.Errorf("NameOf = %q, want test.event", got)
	}
	if got := NameOf(0); got != "" {
		t.Errorf("NameOf(0) = %q, want empty", got)
	}
	if got := NameOf(NameID(1 << 20)); got != "" {
		t.Errorf("NameOf(unknown) = %q, want empty", got)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	// Every method must be callable on nil without panicking.
	r.SetClock(1)
	r.Instant(0, tName, 0, 0, 0, 0)
	r.Span(0, tName, 0, 1, 0, 0, 0, 0)
	r.Counter(0, tName, 3)
	r.SetTrackName(0, "GPU 0")
	if r.Clock() != 0 || r.Len() != 0 || r.Dropped() != 0 || r.Tracks() != 0 {
		t.Error("nil recorder reports non-zero state")
	}
	if r.Events() != nil {
		t.Error("nil recorder returned events")
	}
	reg := r.Metrics()
	if reg != nil {
		t.Fatal("nil recorder returned non-nil registry")
	}
	c := reg.Counter("x")
	c.Set(1)
	if c.Value() != 0 {
		t.Error("nil counter stored a value")
	}
	reg.Histogram("h", stats.LinearBuckets(0, 1, 4)).Observe(1)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Errorf("nil trace missing traceEvents: %s", buf.String())
	}
	buf.Reset()
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatalf("nil WriteSummary: %v", err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Errorf("nil summary = %q", buf.String())
	}
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if r := New(Config{}); r != nil {
		t.Fatal("New with Enabled=false returned non-nil")
	}
}

func TestRecordAndOrder(t *testing.T) {
	r := New(Config{Enabled: true, Tracks: 2, BufferSize: 16})
	r.SetTrackName(0, "GPU 0")
	r.SetTrackName(1, "GPU 1")
	r.SetClock(2.0)
	r.Instant(1, tName, tArgA, 7, 0, 0) // sim 2.0, track 1
	r.SetClock(1.0)
	r.Instant(0, tName, 0, 0, 0, 0)            // sim 1.0, track 0
	r.Span(0, tName, 1.0, 0.5, tArgB, 9, 0, 0) // sim 1.0, track 0, later emission
	r.CounterAt(1, tName, 1.0, 42)             // sim 1.0, track 1
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	// Order: (1.0, track0, emit#0), (1.0, track0, emit#1), (1.0, track1), (2.0, track1).
	if evs[0].Kind != KindInstant || evs[0].Track != 0 {
		t.Errorf("evs[0] = %+v", evs[0])
	}
	if evs[1].Kind != KindSpan || evs[1].V1 != 9 {
		t.Errorf("evs[1] = %+v", evs[1])
	}
	if evs[2].Kind != KindCounter || evs[2].Val != 42 {
		t.Errorf("evs[2] = %+v", evs[2])
	}
	if evs[3].Sim != 2.0 || evs[3].V1 != 7 {
		t.Errorf("evs[3] = %+v", evs[3])
	}
	if r.TrackName(1) != "GPU 1" {
		t.Errorf("TrackName(1) = %q", r.TrackName(1))
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(Config{Enabled: true, BufferSize: 8})
	for i := 0; i < 20; i++ {
		r.InstantAt(0, tName, float64(i), tArgA, int64(i), 0, 0)
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	if r.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(12 + i); ev.V1 != want {
			t.Errorf("evs[%d].V1 = %d, want %d (oldest must be overwritten)", i, ev.V1, want)
		}
	}
}

func TestBufferSizeRoundsToPowerOfTwo(t *testing.T) {
	r := New(Config{Enabled: true, BufferSize: 100})
	if got := len(r.tracks[0].buf); got != 128 {
		t.Errorf("buffer size %d, want 128", got)
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	r := New(Config{Enabled: true, Tracks: 1, BufferSize: 64})
	r.SetClock(1)
	allocs := testing.AllocsPerRun(200, func() {
		r.Instant(0, tName, tArgA, 1, tArgB, 2)
		r.Span(0, tName, 1, 0.5, tArgA, 3, 0, 0)
		r.Counter(0, tName, 4)
	})
	if allocs != 0 {
		t.Errorf("emit path allocates %v per run, want 0 (including after ring wrap)", allocs)
	}
}

func TestEmitZeroAllocWithHostClock(t *testing.T) {
	r := New(Config{Enabled: true, Tracks: 1, BufferSize: 64, HostClock: true})
	allocs := testing.AllocsPerRun(200, func() {
		r.Instant(0, tName, 0, 0, 0, 0)
	})
	if allocs != 0 {
		t.Errorf("host-clock emit allocates %v per run, want 0", allocs)
	}
}

func TestMetricsZeroAlloc(t *testing.T) {
	r := New(Config{Enabled: true})
	reg := r.Metrics()
	c := reg.Counter("c")
	h := reg.Histogram("h", stats.ExpBuckets(1, 2, 8))
	allocs := testing.AllocsPerRun(200, func() {
		c.Set(1)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Errorf("metric updates allocate %v per run, want 0", allocs)
	}
}

func TestRegistryFindOrCreate(t *testing.T) {
	r := New(Config{Enabled: true})
	reg := r.Metrics()
	if reg.Counter("x") != reg.Counter("x") {
		t.Error("Counter find-or-create returned distinct handles")
	}
	if reg.Histogram("x", []float64{1}) != reg.Histogram("x", nil) {
		t.Error("Histogram find-or-create returned distinct handles")
	}
	reg.Counter("x").Set(3)
	reg.Histogram("x", nil).Observe(2)
	snaps := reg.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	// Sorted by kind: counter, histogram.
	if snaps[0].Kind != "counter" || snaps[0].Value != 3 {
		t.Errorf("snaps[0] = %+v", snaps[0])
	}
	if snaps[1].Kind != "histogram" || snaps[1].Dist.N != 1 {
		t.Errorf("snaps[1] = %+v", snaps[1])
	}
}

func TestWriteSummaryIncludesMetrics(t *testing.T) {
	r := New(Config{Enabled: true, Tracks: 1})
	r.SetTrackName(0, "GPU 0")
	r.Instant(0, tName, 0, 0, 0, 0)
	r.Metrics().Counter("mpx.sends").Set(5)
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GPU 0", "mpx.sends", "1 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
