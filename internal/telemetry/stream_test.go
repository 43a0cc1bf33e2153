package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

var (
	evStreamSpan = Name("test.stream.span")
	evStreamInst = Name("test.stream.inst")
	evStreamCtr  = Name("test.stream.ctr")
	argStreamV   = Name("v")
)

// driveStreamScript records a fixed two-track workload: 50 clock
// steps, three events per track per step (span, counter, instant),
// with a pump at every batch boundary — the same cadence the runtime
// uses. 300 events total.
func driveStreamScript(r *Recorder) {
	r.SetTrackName(0, "t0")
	r.SetTrackName(1, "t1")
	clock := 0.0
	for step := 0; step < 50; step++ {
		clock += 1e-6
		r.SetClock(clock)
		for g := 0; g < 2; g++ {
			r.Span(g, evStreamSpan, clock, 5e-7, argStreamV, int64(step), 0, 0)
			r.Counter(g, evStreamCtr, float64(step))
			r.InstantAt(g, evStreamInst, clock+2e-7, 0, 0, 0, 0)
		}
		r.Pump()
	}
}

func TestStreamConcatEqualsWriteTrace(t *testing.T) {
	var streamed bytes.Buffer
	r := New(Config{Enabled: true, Tracks: 2, BufferSize: 1024,
		Stream: &StreamConfig{W: &streamed, Watermark: 64}})
	driveStreamScript(r)
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}
	st := r.Stream().Stats()
	if st.Events != 300 {
		t.Errorf("streamed %d events, want 300", st.Events)
	}
	if st.Chunks < 2 {
		t.Errorf("watermark 64 over 300 events produced %d chunks, want several", st.Chunks)
	}
	if st.Dropped != 0 || st.Late != 0 {
		t.Errorf("lossless script dropped %d / late %d, want 0/0", st.Dropped, st.Late)
	}
	if st.Bytes != uint64(streamed.Len()) {
		t.Errorf("Stats().Bytes = %d, writer saw %d", st.Bytes, streamed.Len())
	}

	// The ring never wrapped, so the post-hoc export must be the very
	// same bytes the chunks concatenated to.
	var posthoc bytes.Buffer
	if err := r.WriteTrace(&posthoc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), posthoc.Bytes()) {
		t.Fatalf("streamed concatenation != post-hoc export:\nstream %d bytes, posthoc %d bytes",
			streamed.Len(), posthoc.Len())
	}
}

func TestStreamChunksParseStandalone(t *testing.T) {
	var streamed bytes.Buffer
	var chunks [][]byte
	r := New(Config{Enabled: true, Tracks: 2, BufferSize: 1024,
		Stream: &StreamConfig{W: &streamed, Watermark: 64,
			OnChunk: func(c []byte) { chunks = append(chunks, c) }}})
	driveStreamScript(r)
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if len(chunks) == 0 {
		t.Fatal("OnChunk never fired")
	}
	total := 0
	for i, c := range chunks {
		var evs []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		}
		if err := json.Unmarshal(c, &evs); err != nil {
			t.Fatalf("chunk %d is not a standalone JSON array: %v\n%s", i, err, c)
		}
		if len(evs) == 0 {
			t.Fatalf("chunk %d is empty", i)
		}
		for _, ev := range evs {
			switch ev.Ph {
			case "M", "X", "i", "C":
			default:
				t.Fatalf("chunk %d: unknown phase %q", i, ev.Ph)
			}
		}
		total += len(evs)
	}
	// 300 recorded events plus the two thread_name metadata events.
	if total != 302 {
		t.Errorf("chunks carry %d trace events, want 302", total)
	}
}

func TestStreamDeterministicAcrossReplays(t *testing.T) {
	run := func() ([]byte, []int) {
		var streamed bytes.Buffer
		var sizes []int
		r := New(Config{Enabled: true, Tracks: 2, BufferSize: 1024,
			Stream: &StreamConfig{W: &streamed, Watermark: 32,
				OnChunk: func(c []byte) { sizes = append(sizes, len(c)) }}})
		driveStreamScript(r)
		if err := r.CloseStream(); err != nil {
			t.Fatal(err)
		}
		return streamed.Bytes(), sizes
	}
	b1, s1 := run()
	b2, s2 := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("replaying the same script streamed different bytes")
	}
	if len(s1) != len(s2) {
		t.Fatalf("chunk boundaries differ: %v vs %v", s1, s2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("chunk %d sized %d vs %d", i, s1[i], s2[i])
		}
	}
}

func TestStreamRingWrapAccounting(t *testing.T) {
	// Without a pump between emissions, a burst larger than the ring
	// loses its head to the stream — and says so.
	var streamed bytes.Buffer
	r := New(Config{Enabled: true, BufferSize: 16,
		Stream: &StreamConfig{W: &streamed, Watermark: 8}})
	r.SetClock(1e-6)
	for i := 0; i < 100; i++ {
		r.InstantAt(0, evStreamInst, 2e-6, argStreamV, int64(i), 0, 0)
	}
	r.SetClock(3e-6) // first ingest: ring holds only the newest 16
	if err := r.CloseStream(); err != nil {
		t.Fatal(err)
	}
	st := r.Stream().Stats()
	if st.Dropped != 84 {
		t.Errorf("stream Dropped = %d, want 84 (100 emitted, ring 16)", st.Dropped)
	}
	if st.Events != 16 {
		t.Errorf("stream Events = %d, want 16", st.Events)
	}

	// With pumps at batch boundaries the same tiny ring loses nothing
	// to the stream, even though the ring itself wraps.
	var streamed2 bytes.Buffer
	r2 := New(Config{Enabled: true, BufferSize: 16,
		Stream: &StreamConfig{W: &streamed2, Watermark: 8}})
	r2.SetClock(1e-6)
	for i := 0; i < 100; i++ {
		r2.InstantAt(0, evStreamInst, 2e-6, argStreamV, int64(i), 0, 0)
		if i%8 == 7 {
			r2.Pump()
		}
	}
	r2.SetClock(3e-6)
	if err := r2.CloseStream(); err != nil {
		t.Fatal(err)
	}
	st2 := r2.Stream().Stats()
	if st2.Dropped != 0 {
		t.Errorf("pumped stream Dropped = %d, want 0", st2.Dropped)
	}
	if st2.Events != 100 {
		t.Errorf("pumped stream Events = %d, want 100", st2.Events)
	}
	if r2.Dropped() == 0 {
		t.Error("ring never wrapped; the test lost its bounded-memory witness")
	}
	if got, want := r2.Emitted(), uint64(100); got != want {
		t.Errorf("Emitted = %d, want %d", got, want)
	}
}

func TestNewStreamerErrors(t *testing.T) {
	if _, err := NewStreamer(nil, StreamConfig{W: io.Discard}); err == nil {
		t.Error("NewStreamer(nil recorder) succeeded")
	}
	r := New(Config{Enabled: true})
	if _, err := NewStreamer(r, StreamConfig{}); err == nil {
		t.Error("NewStreamer with nil writer succeeded")
	}
	if _, err := NewStreamer(r, StreamConfig{W: io.Discard}); err != nil {
		t.Fatalf("first attach failed: %v", err)
	}
	if _, err := NewStreamer(r, StreamConfig{W: io.Discard}); err == nil {
		t.Error("second attach succeeded; a recorder streams to one destination")
	}
}

func TestStreamNilSafety(t *testing.T) {
	var r *Recorder
	r.Pump()
	if err := r.CloseStream(); err != nil {
		t.Errorf("nil CloseStream = %v", err)
	}
	if r.Stream() != nil {
		t.Error("nil recorder has a streamer")
	}
	var s *Streamer
	if st := s.Stats(); st != (StreamStats{}) {
		t.Errorf("nil streamer stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil streamer Close = %v", err)
	}
	if err := s.Err(); err != nil {
		t.Errorf("nil streamer Err = %v", err)
	}
}

func TestStreamCloseIdempotentAndSticky(t *testing.T) {
	r := New(Config{Enabled: true, Stream: &StreamConfig{W: failWriter{}}})
	r.SetClock(1e-6)
	r.Instant(0, evStreamInst, 0, 0, 0, 0)
	err1 := r.CloseStream()
	if err1 == nil {
		t.Fatal("close over a failing writer returned nil")
	}
	if err2 := r.CloseStream(); !errors.Is(err2, err1) && err2 == nil {
		t.Error("second close lost the sticky error")
	}
	if r.Stream().Err() == nil {
		t.Error("Err() lost the sticky error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("wire cut") }

// TestPumpZeroAllocWithoutStreamer guards the hot-path contract: the
// launch-boundary pump in the engines must cost nothing when no
// streamer is attached.
func TestPumpZeroAllocWithoutStreamer(t *testing.T) {
	r := New(Config{Enabled: true, BufferSize: 64})
	if allocs := testing.AllocsPerRun(1000, r.Pump); allocs != 0 {
		t.Errorf("Pump allocates %v times per call without a streamer", allocs)
	}
}
