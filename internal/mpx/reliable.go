// Reliable transport layer of the runtime: sequence-numbered frames
// per (src,dst) flow, sender-side ack/retransmit windows with capped
// exponential backoff over simulated time, receiver-side reordering
// and duplicate suppression. Over the lossless cluster the layer is a
// straight pass-through (every frame is acked the step it arrives, so
// no timer ever fires); under the fault plane (internal/fault) it is
// what turns drops, duplicates, corruption and stalls back into
// exactly-once, per-flow-ordered delivery.
package mpx

import (
	"errors"
	"fmt"

	"simtmp/internal/envelope"
	"simtmp/internal/fault"
	"simtmp/internal/gas"
	"simtmp/internal/ring"
	"simtmp/internal/timing"
)

// Transport is the wire the runtime drives: the GAS cluster's remote
// enqueue/drain API plus the hooks the fault plane needs (a per-step
// tick and the ack-loss roll). The lossless cluster and the fault
// injector both satisfy it.
type Transport interface {
	// Size returns the number of GPUs on the wire.
	Size() int
	// PutStream writes one frame into dst's ring, carrying both the
	// per-flow wire sequence and the per-(flow,stream) sub-sequence;
	// retryable back-pressure errors wrap ring.ErrNoCredits or
	// fault.ErrPaused.
	PutStream(dst int, env envelope.Envelope, payload []byte, seq, flow, sseq uint64) error
	// Drain removes dst's arrived messages in wire order.
	Drain(dst int) []gas.Message
	// Pending returns dst's undrained depth.
	Pending(dst int) int
	// Idle reports whether the wire holds no undelivered frames.
	Idle() bool
	// Step advances wire-side time (delayed frames, pause rolls, …).
	Step()
	// DropAck reports whether the ack for (src→dst, flow) is lost.
	DropAck(src, dst int, flow uint64) bool
}

// lossless adapts the bare cluster to Transport: a perfect wire.
type lossless struct{ c *gas.Cluster }

func (l lossless) Size() int { return l.c.Size() }
func (l lossless) PutStream(dst int, env envelope.Envelope, payload []byte, seq, flow, sseq uint64) error {
	return l.c.PutStream(dst, env, payload, seq, flow, sseq)
}
func (l lossless) Drain(dst int) []gas.Message     { return l.c.Drain(dst) }
func (l lossless) Pending(dst int) int             { return l.c.Pending(dst) }
func (l lossless) Idle() bool                      { return l.c.Idle() }
func (l lossless) Step()                           {}
func (l lossless) DropAck(_, _ int, _ uint64) bool { return false }

// retryable reports whether a transport error is transient
// back-pressure (credit exhaustion, paused GPU) rather than a hard
// failure: the frame stays queued and is retried on a later step.
func retryable(err error) bool {
	return errors.Is(err, ring.ErrNoCredits) || errors.Is(err, fault.ErrPaused)
}

// numStreams is the number of per-endpoint ordering contexts the wire
// can name (the envelope's 4-bit stream field).
const numStreams = int(envelope.MaxStream) + 1

// frame is one send in flight: the envelope and payload plus the
// global logical timestamp (seq, pre-postedness), the per-flow wire
// sequence number (flow, dedup/ordering), and the per-(flow,stream)
// sub-sequence (sseq, release order under StreamOrdered). Frames come
// from the runtime's free list and return to it on ack, whatever kind
// of send staged them; nothing on the wire holds one (the transport
// copies the fields it carries).
type frame struct {
	env     envelope.Envelope
	payload []byte
	seq     uint64
	flow    uint64
	sseq    uint64
	// attempts and deadline are set when the frame is transmitted
	// (flushOutbox) or parked (parkLocked), before anything reads them,
	// so a recycled frame needs no reset.
	attempts int     // transmissions so far
	deadline float64 // simulated time of the next retransmission
}

// txFlow is the sender half of one (src,dst) flow: unsent frames
// (outbox) and transmitted-but-unacked frames (inflight, bounded by
// Config.Window). Under flow control (Config.UMQCap/StagingCap) it
// also carries the end-to-end credit state: the receiver's latest
// cumulative consumption grant, the zero-window probe flag, and the
// shed ledger of parked frames awaiting NACK or deadline recovery.
type txFlow struct {
	src, dst int
	nextFlow uint64 // last wire sequence number assigned
	// nextSSeq holds the last per-stream sub-sequence assigned, one
	// counter per ordering context. Stream 0 carries all traffic of the
	// strict levels, so the counters cost nothing there.
	nextSSeq [numStreams]uint64
	// outbox is the staging queue, consumed from outHead: popping
	// advances the head instead of re-slicing, and draining rewinds to
	// the buffer's start, so steady-state traffic reuses one backing
	// array forever instead of allocating as the slice walks off its
	// capacity.
	outbox       []*frame
	outHead      int
	inflight     []*frame
	consumedSeen uint64   // receiver's cumulative matched count, last granted
	probe        bool     // credit-stalled with no ack to ride: refresh next step
	parked       []*frame // shed frames (ascending flow order), no wire resources
}

// staged returns the number of frames queued for transmission.
func (fl *txFlow) staged() int { return len(fl.outbox) - fl.outHead }

// stageHead returns the next frame to transmit (staged() must be > 0).
func (fl *txFlow) stageHead() *frame { return fl.outbox[fl.outHead] }

// push appends a frame to the staging queue.
func (fl *txFlow) push(fr *frame) { fl.outbox = append(fl.outbox, fr) }

// popHead removes and returns the staging queue's head, rewinding the
// buffer when it drains so its capacity is reused.
func (fl *txFlow) popHead() *frame {
	fr := fl.outbox[fl.outHead]
	fl.outbox[fl.outHead] = nil
	fl.outHead++
	if fl.outHead == len(fl.outbox) {
		fl.outbox = fl.outbox[:0]
		fl.outHead = 0
	}
	return fr
}

// frameFlow is the sort key of the flow-ordered frame queues.
func frameFlow(fr *frame) uint64 { return fr.flow }

// insertSorted inserts v into s[lo:], which is sorted by key, after
// every element with an equal key, and returns the grown slice.
func insertSorted[T any](s []T, lo int, v T, key func(T) uint64) []T {
	i := len(s)
	for i > lo && key(s[i-1]) > key(v) {
		i--
	}
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// idle reports whether the flow holds no undelivered frames.
func (fl *txFlow) idle() bool {
	return fl.staged() == 0 && len(fl.inflight) == 0 && len(fl.parked) == 0
}

// has reports whether wire sequence number flow is awaiting an ack.
func (fl *txFlow) has(flow uint64) bool {
	for _, fr := range fl.inflight {
		if fr.flow == flow {
			return true
		}
	}
	return false
}

// ack retires wire sequence number flow from the inflight window,
// returning the retired frame (nil if absent) so it can be recycled.
func (fl *txFlow) ack(flow uint64) *frame {
	for i, fr := range fl.inflight {
		if fr.flow == flow {
			fl.inflight = append(fl.inflight[:i], fl.inflight[i+1:]...)
			return fr
		}
	}
	return nil
}

// reorder is one in-order release frontier: the next expected
// sequence number and the out-of-order messages held back until the
// gap before them fills. It keys on whatever sequence it is given —
// the flow sequence for a flow ledger, the per-stream sub-sequence for
// a stream frontier.
type reorder struct {
	next uint64
	held map[uint64]gas.Message
}

func newReorder() reorder { return reorder{next: 1, held: make(map[uint64]gas.Message)} }

// seen reports whether seq was already released or is held.
func (r *reorder) seen(seq uint64) bool {
	if seq < r.next {
		return true
	}
	_, ok := r.held[seq]
	return ok
}

// hold parks m under seq until the frontier reaches it.
func (r *reorder) hold(seq uint64, m gas.Message) { r.held[seq] = m }

// pop releases the message at the frontier, if it is held, and
// advances the frontier past it.
func (r *reorder) pop() (gas.Message, bool) {
	m, ok := r.held[r.next]
	if ok {
		delete(r.held, r.next)
		r.next++
	}
	return m, ok
}

// pending returns the number of held messages.
func (r *reorder) pending() int { return len(r.held) }

// minHeld returns the lowest held sequence (pending() must be > 0).
func (r *reorder) minHeld() uint64 {
	lo := ^uint64(0)
	for seq := range r.held {
		if seq < lo {
			lo = seq
		}
	}
	return lo
}

// rxFlow is the receiver half of one (dst,src) flow. Its ledger
// releases frames to the matching layer only in contiguous flow order,
// which restores per-flow MPI ordering under wire reordering; anything
// the ledger has seen is a duplicate and is suppressed.
type rxFlow struct {
	ledger reorder
	// Flow-control state: the cumulative count of this flow's messages
	// matched (the consumption grant advertised back to the sender),
	// and the flow sequence below which gaps were already NACKed so
	// each missing sequence is signalled exactly once.
	matched     uint64
	nackedBelow uint64
	// streams holds the per-stream release frontiers used only under
	// StreamOrdered (lazily allocated per stream), keyed by the
	// per-stream sub-sequence. When they are in play, the ledger keeps
	// doing dedup and gap detection on the dense flow sequence, but
	// holds zero-Message tombstones: the payload-carrying copy waits in
	// its stream's frontier instead. Frames of different streams
	// overtake each other freely — that reordering is exactly what the
	// MPIX Stream relaxation permits.
	streams [numStreams]*reorder
}

// stream returns (creating on first use) stream s's release frontier.
func (rx *rxFlow) stream(s envelope.Stream) *reorder {
	if rx.streams[s] == nil {
		st := newReorder()
		rx.streams[s] = &st
	}
	return rx.streams[s]
}

// idle reports whether the flow holds no out-of-order fragment.
func (rx *rxFlow) idle() bool {
	if rx.ledger.pending() > 0 {
		return false
	}
	for _, st := range rx.streams {
		if st != nil && st.pending() > 0 {
			return false
		}
	}
	return true
}

// StallError reports a Drain that stopped making progress while
// undelivered work remained: receives stayed open for StallPatience
// consecutive progress-free steps. It distinguishes a wedged transport
// (a receiver stalled forever, a peer paused and never resumed) from
// the benign fixed point of an unsatisfiable receive, which Drain
// reports as (false, nil).
type StallError struct {
	Steps    int   // consecutive progress-free steps observed
	GPUs     []int // GPUs with open receives
	Open     int   // receives still undelivered
	InFlight int   // frames queued or awaiting ack across all flows
}

// Error describes the stall.
func (e *StallError) Error() string {
	return fmt.Sprintf("mpx: stalled for %d steps: %d open receive(s) on GPUs %v, %d frame(s) in flight",
		e.Steps, e.Open, e.GPUs, e.InFlight)
}

// DropError reports a frame abandoned after its retry budget: message
// flow-sequence Flow from GPU Src to GPU Dst was transmitted Attempts
// times without an acknowledgment and is presumed permanently lost.
type DropError struct {
	Src, Dst int
	Flow     uint64
	Attempts int
}

// Error names the lost frame.
func (e *DropError) Error() string {
	return fmt.Sprintf("mpx: message %d→%d flow-seq %d lost after %d attempts (retry budget exhausted)",
		e.Src, e.Dst, e.Flow, e.Attempts)
}

// txFlowFor returns (creating on first use) the sender flow src→dst.
func (rt *Runtime) txFlowFor(src, dst int) *txFlow {
	if rt.tx[src][dst] == nil {
		rt.tx[src][dst] = &txFlow{src: src, dst: dst}
	}
	return rt.tx[src][dst]
}

// newFrameLocked takes a frame from the free list (allocating only
// when it is empty) and stamps it for flow fl: the next global logical
// timestamp, flow sequence number and per-stream sub-sequence.
func (rt *Runtime) newFrameLocked(fl *txFlow, env envelope.Envelope, payload []byte) *frame {
	var fr *frame
	if n := len(rt.frames); n > 0 {
		fr, rt.frames = rt.frames[n-1], rt.frames[:n-1]
	} else {
		fr = new(frame)
	}
	rt.seq++
	fl.nextFlow++
	fl.nextSSeq[env.Stream]++
	// Field by field: a whole-struct store would copy through a stack
	// temporary on every send.
	fr.env, fr.payload = env, payload
	fr.seq, fr.flow, fr.sseq = rt.seq, fl.nextFlow, fl.nextSSeq[env.Stream]
	return fr
}

// rxFlowFor returns (creating on first use) the receiver flow state
// for frames from src arriving at dst.
func (rt *Runtime) rxFlowFor(dst, src int) *rxFlow {
	if rt.rx[dst][src] == nil {
		rt.rx[dst][src] = &rxFlow{ledger: newReorder()}
	}
	return rt.rx[dst][src]
}

// rto returns the retransmission deadline delta for the given 1-based
// transmission attempt: capped exponential backoff in simulated time.
func (rt *Runtime) rto(attempt int) float64 {
	return timing.Backoff(rt.rtoBase, rt.rtoMax, attempt)
}

// flushOutbox transmits queued frames while the inflight window has
// room and the receiver-granted credit window admits them, stopping
// (without error) at credit exhaustion or transport back-pressure. It
// returns the number of frames that left the outbox.
func (rt *Runtime) flushOutbox(fl *txFlow) (int, error) {
	moved := 0
	for fl.staged() > 0 && len(fl.inflight) < rt.cfg.Window {
		fr := fl.stageHead()
		if rt.creditWindow > 0 && !rt.hasCreditLocked(fl, fr) {
			// End-to-end credit stall: the receiver has not provisioned
			// room. Raise the zero-window probe so the next progress
			// step refreshes the grant even if no ack arrives.
			fl.probe = true
			rt.stats.CreditStalls++
			rt.rec.Instant(fl.src, evCreditStall, argDst, int64(fl.dst), argQueued, int64(fl.staged()))
			break
		}
		if err := rt.transport.PutStream(fl.dst, fr.env, fr.payload, fr.seq, fr.flow, fr.sseq); err != nil {
			if retryable(err) {
				rt.stats.CreditStalls++
				rt.rec.Instant(fl.src, evCreditStall, argDst, int64(fl.dst), argQueued, int64(fl.staged()))
				break
			}
			return moved, fmt.Errorf("mpx: send %d→%d: %w", fl.src, fl.dst, err)
		}
		fr.attempts = 1
		fr.deadline = rt.now + rt.rto(1)
		fl.inflight = append(fl.inflight, fr)
		fl.popHead()
		moved++
	}
	return moved, nil
}

// checkRetransmits re-sends inflight frames whose deadline passed.
// Back-pressure during a retransmission defers the frame one poll
// without charging an attempt (the wire refused it; it was not lost);
// a frame that exhausts its budget surfaces as *DropError.
func (rt *Runtime) checkRetransmits(fl *txFlow) (int, error) {
	moved := 0
	for _, fr := range fl.inflight {
		if rt.now < fr.deadline {
			continue
		}
		if fr.attempts >= rt.cfg.RetryLimit {
			return moved, &DropError{Src: fl.src, Dst: fl.dst, Flow: fr.flow, Attempts: fr.attempts}
		}
		if err := rt.transport.PutStream(fl.dst, fr.env, fr.payload, fr.seq, fr.flow, fr.sseq); err != nil {
			if retryable(err) {
				fr.deadline = rt.now + rt.poll
				continue
			}
			return moved, fmt.Errorf("mpx: retransmit %d→%d: %w", fl.src, fl.dst, err)
		}
		fr.attempts++
		fr.deadline = rt.now + rt.rto(fr.attempts)
		rt.stats.Retries++
		rt.rec.Instant(fl.src, evRetransmit, argDst, int64(fl.dst), argAttempts, int64(fr.attempts))
		moved++
	}
	return moved, nil
}

// pumpFlowsLocked runs retransmissions and outbox flushes across every
// flow in deterministic (src, dst) order, returning total frames moved.
func (rt *Runtime) pumpFlowsLocked() (int, error) {
	moved := 0
	for src := range rt.tx {
		for dst := range rt.tx[src] {
			fl := rt.tx[src][dst]
			if fl == nil {
				continue
			}
			if fl.probe {
				// Zero-window probe: the flow credit-stalled with no ack
				// to piggyback a grant on, so refresh it explicitly.
				rt.grantCreditsLocked(fl)
				fl.probe = false
			}
			if len(fl.parked) > 0 {
				moved += rt.unparkDueLocked(fl)
			}
			m, err := rt.checkRetransmits(fl)
			moved += m
			if err != nil {
				return moved, err
			}
			m, err = rt.flushOutbox(fl)
			moved += m
			if err != nil {
				return moved, err
			}
		}
	}
	return moved, nil
}

// receiveLocked drains every GPU's wire, acks what arrived, suppresses
// duplicates and releases in-order frames to the matching layer. It
// returns the number of arrivals plus acks processed.
//
// Under StreamOrdered the flow ledger keeps doing duplicate
// suppression and NACK gap detection exactly as under the strict
// levels, but delivery no longer waits for flow contiguity: each frame
// is released in contiguous per-stream sub-sequence order instead, so
// one stream never stalls behind another stream's wire gap. A frame
// released while a lower flow sequence is still missing is precisely
// the reordering the relaxation permits and the strict path would have
// held back; Stats.CrossStreamReleases counts them.
func (rt *Runtime) receiveLocked() int {
	progress := 0
	n := rt.transport.Size()
	for g := 0; g < n; g++ {
		for _, m := range rt.transport.Drain(g) {
			src := int(m.Env.Src)
			if src < 0 || src >= n || m.Flow == 0 {
				// Raw traffic outside the reliable layer (injected by
				// tests via the cluster directly): deliver as-is.
				rt.pendingMsgs[g] = append(rt.pendingMsgs[g], m)
				progress++
				continue
			}
			// Acknowledge on every arrival, duplicate or not: a lost
			// ack means the sender will retransmit, and the re-arrival
			// is the next chance to retire the frame.
			if fl := rt.tx[src][g]; fl != nil && fl.has(m.Flow) {
				if !rt.transport.DropAck(src, g, m.Flow) {
					if fr := fl.ack(m.Flow); fr != nil {
						rt.stats.Acks++
						progress++
						fr.payload = nil // retain no user buffer
						rt.frames = append(rt.frames, fr)
						if rt.creditWindow > 0 {
							// The ack piggybacks the receiver's cumulative
							// consumption grant back to the sender.
							rt.grantCreditsLocked(fl)
						}
					}
				}
			}
			rx := rt.rxFlowFor(g, src)
			if rx.ledger.seen(m.Flow) {
				rt.stats.Duplicates++
				continue
			}
			buf, seq := &rx.ledger, m.Flow
			if rt.cfg.Level == StreamOrdered {
				// Arrival tombstone: the frontier advance reclaims it.
				rx.ledger.hold(m.Flow, gas.Message{})
				for {
					if _, ok := rx.ledger.pop(); !ok {
						break
					}
				}
				buf, seq = rx.stream(m.Env.Stream), m.SSeq
			}
			buf.hold(seq, m)
			for mm, ok := buf.pop(); ok; mm, ok = buf.pop() {
				if mm.Flow >= rx.ledger.next {
					rt.stats.CrossStreamReleases++
				}
				rt.admitLocked(g, rx, &mm)
				progress++
			}
		}
	}
	return progress
}

// admitLocked hands one released message to GPU g's matching layer.
// Persistent fast path: a message whose tuple hits a sealed match
// handle is delivered straight into its channel — it never enters the
// unexpected queue — and counts as consumption for credit purposes
// exactly like an engine match would. Anything else joins the
// unexpected queue.
func (rt *Runtime) admitLocked(g int, rx *rxFlow, m *gas.Message) {
	if !rt.persistDeliverLocked(g, m) {
		rt.pendingMsgs[g] = append(rt.pendingMsgs[g], *m)
	} else if rt.creditWindow > 0 {
		rx.matched++
	}
}

// flowsIdleLocked reports whether every sender flow delivered all its
// frames and no receiver holds an out-of-order fragment — i.e. the
// reliable layer itself has nothing left to do.
func (rt *Runtime) flowsIdleLocked() bool {
	for src := range rt.tx {
		for dst := range rt.tx[src] {
			if fl := rt.tx[src][dst]; fl != nil && !fl.idle() {
				return false
			}
		}
	}
	for dst := range rt.rx {
		for _, rx := range rt.rx[dst] {
			if rx != nil && !rx.idle() {
				return false
			}
		}
	}
	return true
}

// inFlightLocked counts frames queued or awaiting ack across flows.
func (rt *Runtime) inFlightLocked() int {
	n := 0
	for src := range rt.tx {
		for dst := range rt.tx[src] {
			if fl := rt.tx[src][dst]; fl != nil {
				n += fl.staged() + len(fl.inflight) + len(fl.parked)
			}
		}
	}
	return n
}

// stallErrorLocked builds the StallError snapshot for Drain.
func (rt *Runtime) stallErrorLocked(steps, open int) *StallError {
	e := &StallError{Steps: steps, Open: open, InFlight: rt.inFlightLocked()}
	for g := range rt.pendingRecvs {
		if len(rt.pendingRecvs[g]) > 0 {
			e.GPUs = append(e.GPUs, g)
		}
	}
	return e
}
