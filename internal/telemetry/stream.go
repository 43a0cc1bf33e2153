package telemetry

import (
	"errors"
	"io"
)

// defaultWatermark is the chunk flush threshold in finalized events.
const defaultWatermark = 256

// StreamConfig parameterizes a live Streamer (Config.Stream, or
// NewStreamer to attach one to an existing recorder).
type StreamConfig struct {
	// W receives the chunked trace-event JSON. The concatenation of
	// all chunks is one complete Chrome/Perfetto trace document —
	// byte-identical to the post-hoc WriteTrace output whenever the
	// ring never wrapped past the streamer (Stats().Dropped == 0) and
	// the stream was finalized via CloseStream.
	W io.Writer
	// Watermark is the number of finalized events that triggers a
	// chunk flush (default 256). Smaller values stream sooner; chunk
	// boundaries are deterministic either way, because flushing keys
	// off the simulated clock and this count — never host time.
	Watermark int
	// OnChunk, when set, additionally receives each flushed chunk as a
	// standalone JSON array of its trace events (newline-terminated) —
	// parseable on its own, unlike the raw wire bytes. The slice is
	// freshly allocated per chunk and may be retained.
	OnChunk func(chunk []byte)
}

// StreamStats accounts a streamer's life.
type StreamStats struct {
	// Chunks is the number of chunk writes issued to the writer.
	Chunks uint64
	// Events is the number of recorded events written to the stream
	// (metadata events excluded).
	Events uint64
	// Bytes is the total bytes written to the writer.
	Bytes uint64
	// Dropped counts events the ring overwrote before the streamer
	// could ingest them — events lost to the stream. It stays zero as
	// long as the runtime pumps at least once per BufferSize emissions
	// per track, which the progress-loop and launch-boundary hooks
	// guarantee for any ring that holds one batch of emissions.
	Dropped uint64
	// MaxBuffered is the peak number of ingested events held by the
	// streamer awaiting finalization or flush — the witness that a
	// streamed soak runs in bounded memory.
	MaxBuffered int
	// Late counts events ingested already bearing a simulated time
	// before the flush horizon; they are emitted in the next chunk,
	// where the post-hoc export would have sorted them earlier. Always
	// zero while every emission site stamps at or after the recorder
	// clock — the runtime-wide invariant the determinism tests pin.
	Late uint64
}

// Streamer incrementally drains a Recorder to an io.Writer as chunked
// Chrome/Perfetto trace-event JSON while the runtime progresses. It
// has no goroutine and no timer: ingestion happens on Recorder.Pump
// (batch boundaries) and finalization plus flushing on SetClock (the
// simulated clock's monotone advance), so the streamed bytes are a
// pure function of the recorded sequence — byte-identical across
// seeded replays and across sequential vs host-parallel execution.
//
// The streamer observes the ring through per-track cursors; it never
// consumes events, so post-hoc exports of the same recorder still see
// everything the ring retains. An event is finalized once the clock
// passes its simulated time (no later emission can precede it — every
// emission site stamps at or after the current clock), buffered until
// the watermark, then flushed as one chunk sorted in export order.
// Chunks therefore concatenate to exactly the post-hoc export.
type Streamer struct {
	r         *Recorder
	enc       *chunkEncoder
	watermark int
	cursors   []uint64     // per-track ring positions already ingested
	pending   []keyedEvent // ingested, Sim >= horizon (not yet finalized)
	ready     []keyedEvent // finalized (Sim < horizon), awaiting flush
	horizon   float64
	started   bool // horizon is meaningful only after the first advance
	closed    bool
	stats     StreamStats
}

// NewStreamer attaches a live streamer to r and returns it. Errors: a
// nil (disabled) recorder, a nil writer, or a streamer already
// attached — a recorder streams to at most one destination.
func NewStreamer(r *Recorder, cfg StreamConfig) (*Streamer, error) {
	if r == nil {
		return nil, errors.New("telemetry: streaming requires an enabled recorder")
	}
	if cfg.W == nil {
		return nil, errors.New("telemetry: StreamConfig.W is nil")
	}
	if cfg.Watermark <= 0 {
		cfg.Watermark = defaultWatermark
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stream != nil {
		return nil, errors.New("telemetry: recorder already has a streamer")
	}
	s := &Streamer{
		r:         r,
		enc:       newChunkEncoder(cfg.W, cfg.OnChunk),
		watermark: cfg.Watermark,
	}
	r.stream = s
	return s, nil
}

// Stats returns the streamer's accounting so far (zero for nil).
func (s *Streamer) Stats() StreamStats {
	if s == nil {
		return StreamStats{}
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.statsLocked()
}

func (s *Streamer) statsLocked() StreamStats {
	st := s.stats
	st.Chunks, st.Events, st.Bytes = s.enc.chunks, s.enc.events, s.enc.bytes
	return st
}

// Err returns the stream's first write or encoding error (nil for nil).
// Recording never fails on a stream error; the error sticks and every
// later flush is skipped, so it surfaces here and from Close.
func (s *Streamer) Err() error {
	if s == nil {
		return nil
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.enc.err
}

// Close finalizes the stream: ingests and flushes everything still
// buffered or retained, writes the trace footer, and returns the first
// error. Idempotent. Recorder.CloseStream is the same operation.
func (s *Streamer) Close() error {
	if s == nil {
		return nil
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.closeLocked()
}

// ingestLocked copies events the ring recorded since the last ingest
// into the streamer's buffer, counting any the ring already overwrote
// as Dropped. Callers hold r.mu.
func (s *Streamer) ingestLocked() {
	r := s.r
	for len(s.cursors) < len(r.tracks) {
		s.cursors = append(s.cursors, 0)
	}
	for ti := range r.tracks {
		t := &r.tracks[ti]
		cur := s.cursors[ti]
		if t.n == cur {
			continue
		}
		start := cur
		if avail := uint64(len(t.buf)); t.n-cur > avail {
			start = t.n - avail
			s.stats.Dropped += start - cur
		}
		for seq := start; seq < t.n; seq++ {
			k := keyedEvent{ev: t.buf[seq&t.mask], idx: seq}
			if s.started && k.ev.Sim < s.horizon {
				s.stats.Late++
				s.ready = append(s.ready, k)
			} else {
				s.pending = append(s.pending, k)
			}
		}
		s.cursors[ti] = t.n
	}
	if b := len(s.pending) + len(s.ready); b > s.stats.MaxBuffered {
		s.stats.MaxBuffered = b
	}
}

// advanceLocked moves the flush horizon to the new clock value h:
// everything recorded strictly before h is final (no later emission
// can stamp below the clock), so those events move from pending to
// ready and flush once the watermark fills. Callers hold r.mu.
func (s *Streamer) advanceLocked(h float64) {
	if s.closed {
		return
	}
	s.ingestLocked()
	if !s.started || h > s.horizon {
		kept := s.pending[:0]
		for _, k := range s.pending {
			if k.ev.Sim < h {
				s.ready = append(s.ready, k)
			} else {
				kept = append(kept, k)
			}
		}
		s.pending = kept
		s.horizon, s.started = h, true
	}
	if len(s.ready) >= s.watermark {
		s.flushLocked()
	}
}

// encodeReadyLocked serializes the ready events into the current
// chunk in export order. Because successive batches cover disjoint,
// increasing simulated-time ranges and use the same comparator as the
// post-hoc sort, the chunks concatenate to exactly the global export
// order. Callers hold r.mu.
func (s *Streamer) encodeReadyLocked() {
	if len(s.ready) == 0 {
		return
	}
	if s.enc.err == nil {
		sortKeyed(s.ready)
		s.enc.ensureHeader(s.r.trackNamesLocked())
		for i := range s.ready {
			s.enc.add(s.ready[i].ev)
		}
	}
	s.ready = s.ready[:0]
}

// flushLocked emits the ready events as one chunk. Callers hold r.mu.
func (s *Streamer) flushLocked() {
	s.encodeReadyLocked()
	s.enc.flush()
}

// closeLocked drains everything — including events still pending above
// the horizon — and seals the trace; the footer rides in the final
// chunk. Callers hold r.mu.
func (s *Streamer) closeLocked() error {
	if s.closed {
		return s.enc.err
	}
	s.closed = true
	s.ingestLocked()
	s.ready = append(s.ready, s.pending...)
	s.pending = nil
	s.encodeReadyLocked()
	s.enc.closeTrace(s.r.trackNamesLocked())
	return s.enc.err
}
