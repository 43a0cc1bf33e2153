package match

import (
	"fmt"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/telemetry"
)

// VerifyStreamOrdered checks an assignment under the MPIX Stream
// relaxation: within each stream, requests in posted order each claim
// the earliest unclaimed matching message of that stream; across
// streams nothing is owed. The oracle runs per stream on the
// stream-restricted sub-problems. Because the stream field admits no
// wildcard, a pairing can never cross streams, so the per-stream
// oracles jointly cover every entry of the assignment.
func VerifyStreamOrdered(msgs []envelope.Envelope, reqs []envelope.Request, a Assignment) error {
	if len(a) != len(reqs) {
		return fmt.Errorf("assignment has %d entries for %d requests", len(a), len(reqs))
	}
	if err := CheckAssignment(msgs, reqs, a); err != nil {
		return err
	}
	for s := envelope.Stream(0); s <= envelope.MaxStream; s++ {
		var (
			sMsgs   []envelope.Envelope
			msgIdx  []int
			sReqs   []envelope.Request
			reqIdx  []int
			present bool
		)
		for i, m := range msgs {
			if m.Stream == s {
				sMsgs = append(sMsgs, m)
				msgIdx = append(msgIdx, i)
				present = true
			}
		}
		for i, r := range reqs {
			if r.Stream == s {
				sReqs = append(sReqs, r)
				reqIdx = append(reqIdx, i)
				present = true
			}
		}
		if !present {
			continue
		}
		want := Reference(sMsgs, sReqs)
		for li, lw := range want {
			got := a[reqIdx[li]]
			wantGlobal := NoMatch
			if lw != NoMatch {
				wantGlobal = msgIdx[lw]
			}
			if got != wantGlobal {
				return fmt.Errorf("stream %d: request %d: got message %d, per-stream oracle says %d",
					s, reqIdx[li], got, wantGlobal)
			}
		}
	}
	return nil
}

// StreamConfig configures the stream-concurrent matcher (DESIGN.md
// §17): messages and requests partitioned by their stream id, one
// ordered matrix sub-problem per partition. Each partition scans with
// DefaultWindow on one CTA of one SM.
type StreamConfig struct {
	// Arch selects the simulated GPU (default Pascal GTX1080).
	Arch *arch.Arch
	// Streams is the number of stream partitions (1..16, default 8).
	// Stream ids map to partitions modulo Streams, so fewer partitions
	// than live streams merely co-schedules streams, never reorders
	// them against each other illegally.
	Streams int
	// Recorder receives per-pass telemetry (nil = disabled).
	Recorder *telemetry.Recorder
	// Track is the recorder timeline events land on (the owning GPU).
	Track int
}

// NewStreamMatcher returns the MPIX Stream relaxation's matcher: the
// partitioned engine keyed on stream id instead of source rank.
// Matching order is guaranteed only within a stream, so each stream
// partition runs one fully MPI-compliant matrix sub-problem, and no
// cross-queue contention applies (see PartitionedMatcher.contention).
func NewStreamMatcher(cfg StreamConfig) *PartitionedMatcher {
	if cfg.Streams <= 0 {
		cfg.Streams = 8
	}
	if cfg.Streams > int(envelope.MaxStream)+1 {
		cfg.Streams = int(envelope.MaxStream) + 1
	}
	p := NewPartitionedMatcher(PartitionedConfig{
		Arch: cfg.Arch, Queues: cfg.Streams,
		Recorder: cfg.Recorder, Track: cfg.Track,
	})
	p.key = keyStream
	return p
}
