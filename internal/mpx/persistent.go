// Persistent-request plane of the runtime (DESIGN.md §15): MPI-4-style
// SendInit/RecvInit handles that bind a channel's envelope and buffers
// once and re-fire it every iteration, plus partitioned variants where
// each partition departs as soon as the application marks it ready
// (Pready — the early-bird pattern of CPU-free persistent runtimes).
//
// The first iteration of a concrete (wildcard-free) persistent receive
// runs through the full matching engine like any posted receive; when
// it completes, the runtime seals the channel into the GPU's
// match.PersistentCache. From then on an arriving frame whose packed
// header hits a sealed entry is delivered straight into the handle
// during wire drain — no unexpected queue, no engine batch, no
// allocation; one O(1) table lookup billed at a couple of L2
// transactions instead of a matching kernel.
//
// Sealing is revoked (and the next iteration routed back through the
// engine) whenever something could legally contest the channel's
// messages: a non-persistent post landing on the channel's (comm, tag)
// shadow, an MPI_ANY_TAG post on its communicator, an unexpected
// message parked with the channel's own tuple, or another persistent
// channel re-arming the same tuple through the engine path. The
// runtime re-seals after the next full-engine iteration completes
// uncontested. CacheHits/CacheMisses/CacheSeals/CacheInvalidations in
// Stats and the match.cache.* flight-recorder events account every
// transition.
package mpx

import (
	"fmt"

	"simtmp/internal/envelope"
	"simtmp/internal/gas"
	"simtmp/internal/match"
	"simtmp/internal/proto"
)

const (
	// partHeaderLen is the wire header a partitioned frame carries: a
	// little-endian uint16 partition index prepended to the payload.
	// Single-partition channels use no header and stay wire-compatible
	// with plain Send.
	partHeaderLen = 2
	// MaxPartitions bounds a partitioned channel (the index must fit
	// the wire header).
	MaxPartitions = 1 << 16
)

// Starter is anything with a persistent Start — both handle kinds
// implement it, so one StartAll re-fires a whole communication plan.
type Starter interface{ Start() error }

// StartAll starts every handle, stopping at the first error.
func StartAll(handles ...Starter) error {
	for _, h := range handles {
		if err := h.Start(); err != nil {
			return err
		}
	}
	return nil
}

// PersistentSend is a persistent send channel: envelope and payload
// buffers bound at init, re-fired per iteration by Start (and, for
// partitioned channels, Pready per partition). Re-firing draws its
// frames from the runtime's free list, which every ack refills, so the
// steady-state path allocates nothing.
type PersistentSend struct {
	rt          *Runtime
	src, dst    int
	env         envelope.Envelope
	partitioned bool
	wire        [][]byte // per-partition wire payloads (header-prefixed when partitioned)
	fired       []bool
	firedCount  int
	started     bool
	freed       bool
}

// SendInit creates a persistent send channel src→dst carrying payload.
// The payload is bound by reference, like Send: the caller may rewrite
// its contents between iterations (or swap the buffer via Bind).
func (rt *Runtime) SendInit(src, dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) (*PersistentSend, error) {
	return rt.sendInit(src, envelope.DefaultStream, dst, tag, comm, [][]byte{payload}, false)
}

// SendInitPartitioned creates a partitioned persistent send channel:
// Start arms an iteration and each Pready(i) fires partition i
// immediately, so early partitions overlap the computation producing
// late ones. Partition payloads are copied into header-prefixed wire
// buffers at init (rebind with Bind). A partitioned channel must own
// its (src, dst, tag, comm) tuple: interleaving plain sends on it is a
// usage error the receive side reports.
func (rt *Runtime) SendInitPartitioned(src, dst int, tag envelope.Tag, comm envelope.Comm, partitions [][]byte) (*PersistentSend, error) {
	if len(partitions) < 1 || len(partitions) > MaxPartitions {
		return nil, fmt.Errorf("mpx: %d partitions outside [1,%d]", len(partitions), MaxPartitions)
	}
	return rt.sendInit(src, envelope.DefaultStream, dst, tag, comm, partitions, true)
}

// sendInit builds a persistent send channel after the checks every
// send makes. A plain channel binds payloads[0] by reference; a
// partitioned one copies each payload into its header-prefixed wire
// buffer.
func (rt *Runtime) sendInit(src int, stream envelope.Stream, dst int, tag envelope.Tag, comm envelope.Comm, payloads [][]byte, partitioned bool) (*PersistentSend, error) {
	rt.mu.Lock()
	env, err := rt.sendEnvLocked(src, stream, dst, tag, comm)
	rt.mu.Unlock()
	if err != nil {
		return nil, err
	}
	wire := payloads
	if partitioned {
		wire = make([][]byte, len(payloads))
		for i, p := range payloads {
			wire[i] = packPartition(nil, i, p)
		}
	}
	return &PersistentSend{
		rt: rt, src: src, dst: dst, env: env,
		partitioned: partitioned,
		wire:        wire,
		fired:       make([]bool, len(wire)),
	}, nil
}

// packPartition builds the wire payload for partition i into buf
// (reusing its capacity): the little-endian index header followed by
// the payload bytes.
func packPartition(buf []byte, i int, payload []byte) []byte {
	buf = buf[:0]
	buf = append(buf, byte(i), byte(i>>8))
	return append(buf, payload...)
}

// Partitions returns the channel's partition count.
func (h *PersistentSend) Partitions() int { return len(h.wire) }

// Start re-fires the channel. A plain channel transmits its payload
// immediately; a partitioned channel only arms the iteration — each
// partition departs on its Pready. Start fails while a partitioned
// iteration is still missing Preadys. A plain Start refused by
// ErrBackpressure (ShedReject) burns nothing and may simply be
// retried.
func (h *PersistentSend) Start() error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return fmt.Errorf("mpx: Start on freed persistent send %v", h.env)
	}
	if h.started && h.firedCount < len(h.wire) {
		if !h.partitioned {
			return h.fireLocked(0) // retry a previously shed fire
		}
		return fmt.Errorf("mpx: persistent send %v: previous iteration incomplete (%d/%d partitions ready)",
			h.env, h.firedCount, len(h.wire))
	}
	h.started = true
	h.firedCount = 0
	for i := range h.fired {
		h.fired[i] = false
	}
	if h.partitioned {
		return nil
	}
	return h.fireLocked(0)
}

// Pready marks partition i of the current iteration ready and
// transmits it immediately. Valid only on a started partitioned
// channel; firing a partition twice in one iteration is an error. A
// Pready refused by ErrBackpressure may be retried.
func (h *PersistentSend) Pready(i int) error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return fmt.Errorf("mpx: Pready on freed persistent send %v", h.env)
	}
	if !h.partitioned {
		return fmt.Errorf("mpx: Pready on non-partitioned persistent send %v", h.env)
	}
	if !h.started {
		return fmt.Errorf("mpx: Pready before Start on persistent send %v", h.env)
	}
	if i < 0 || i >= len(h.wire) {
		return fmt.Errorf("mpx: partition %d outside [0,%d)", i, len(h.wire))
	}
	if h.fired[i] {
		return fmt.Errorf("mpx: partition %d already ready this iteration", i)
	}
	return h.fireLocked(i)
}

// fireLocked transmits partition i through the send path every Send
// takes (shedding, staging, credit and accounting alike).
func (h *PersistentSend) fireLocked(i int) error {
	accepted, err := h.rt.stageLocked(h.dst, h.env, h.wire[i])
	if accepted {
		h.fired[i] = true
		h.firedCount++
		h.rt.stats.PersistentSends++
	}
	return err
}

// Bind rebinds partition i's payload for later iterations. Plain
// channels rebind by reference; partitioned channels copy into the
// header-prefixed wire buffer (reusing its capacity). Binding while an
// iteration is mid-flight is an error.
func (h *PersistentSend) Bind(i int, payload []byte) error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return fmt.Errorf("mpx: Bind on freed persistent send %v", h.env)
	}
	if i < 0 || i >= len(h.wire) {
		return fmt.Errorf("mpx: partition %d outside [0,%d)", i, len(h.wire))
	}
	if h.started && h.firedCount < len(h.wire) {
		return fmt.Errorf("mpx: Bind on persistent send %v mid-iteration", h.env)
	}
	if h.partitioned {
		h.wire[i] = packPartition(h.wire[i], i, payload)
	} else {
		h.wire[i] = payload
	}
	return nil
}

// Free releases the channel. Freeing mid-iteration is an error.
func (h *PersistentSend) Free() error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return nil
	}
	if h.started && h.firedCount < len(h.wire) {
		return fmt.Errorf("mpx: Free on persistent send %v mid-iteration", h.env)
	}
	h.freed = true
	return nil
}

// PersistentRecv is a persistent receive channel. Start re-arms it for
// one iteration; the iteration completes when all partitions (one, for
// plain channels) are delivered. Concrete channels earn a sealed cache
// entry after a full-engine iteration and are then fed by the O(1)
// fast path; wildcard channels are legal (where the level admits them)
// but run the engine every iteration.
type PersistentRecv struct {
	rt          *Runtime
	gpu         int
	req         envelope.Request
	env         envelope.Envelope // concrete tuple (zero when wildcard)
	wildcard    bool
	partitioned bool
	parts       int
	id          match.HandleID // 0 = no cache entry (wildcard or nocache mode)

	started      bool
	freed        bool
	startSeq     uint64
	arrived      []bool
	arrivedCount int
	inner        int // engine-path receives outstanding this iteration
	payloads     [][]byte
	msg          gas.Message
	transfer     proto.Transfer
	iterations   int
	err          error
}

// RecvInit creates a persistent receive channel on GPU dst for the
// (src, tag, comm) tuple. Wildcards follow the level's PostRecv rules.
func (rt *Runtime) RecvInit(dst int, src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*PersistentRecv, error) {
	return rt.recvInit(dst, envelope.DefaultStream, src, tag, comm, 1, false)
}

// RecvInitPartitioned creates a partitioned persistent receive channel
// expecting parts partitions per iteration. Partitioned channels
// require a concrete tuple (the channel owns it on the wire).
func (rt *Runtime) RecvInitPartitioned(dst int, src envelope.Rank, tag envelope.Tag, comm envelope.Comm, parts int) (*PersistentRecv, error) {
	if parts < 1 || parts > MaxPartitions {
		return nil, fmt.Errorf("mpx: %d partitions outside [1,%d]", parts, MaxPartitions)
	}
	return rt.recvInit(dst, envelope.DefaultStream, src, tag, comm, parts, true)
}

func (rt *Runtime) recvInit(dst int, stream envelope.Stream, src envelope.Rank, tag envelope.Tag, comm envelope.Comm, parts int, partitioned bool) (*PersistentRecv, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	req, err := rt.recvReqLocked(dst, stream, src, tag, comm)
	if err != nil {
		return nil, err
	}
	if partitioned && req.HasWildcard() {
		return nil, fmt.Errorf("mpx: partitioned receive requires a concrete tuple, got %v", req)
	}
	h := &PersistentRecv{
		rt: rt, gpu: dst, req: req,
		wildcard:    req.HasWildcard(),
		partitioned: partitioned,
		parts:       parts,
		arrived:     make([]bool, parts),
		payloads:    make([][]byte, parts),
	}
	if !h.wildcard {
		h.env = envelope.Envelope{Src: src, Tag: tag, Comm: comm, Stream: stream}
		if !rt.cfg.DisablePersistentCache {
			if rt.pcaches[dst] == nil {
				rt.pcaches[dst] = match.NewPersistentCache()
			}
			if h.id, err = rt.pcaches[dst].Alloc(h.env, parts, h); err != nil {
				return nil, err
			}
		}
	}
	return h, nil
}

// Partitions returns the channel's expected partition count.
func (h *PersistentRecv) Partitions() int { return h.parts }

// Start re-arms the channel for one iteration. If the channel is
// sealed, nothing is posted: arriving frames resolve through the cache
// during wire drain. Otherwise one engine-path receive per partition
// is posted (all sharing the Start's logical timestamp, so cached and
// engine-replayed runs see identical posted orders and clocks).
func (h *PersistentRecv) Start() error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return fmt.Errorf("mpx: Start on freed persistent recv %v", h.req)
	}
	if h.started && h.arrivedCount < h.parts {
		return fmt.Errorf("mpx: persistent recv %v: previous iteration incomplete (%d/%d arrived)",
			h.req, h.arrivedCount, h.parts)
	}
	if h.inner > 0 {
		// A failed iteration left engine-path receives behind (the
		// abort completed the iteration without delivering them):
		// cancel them before re-arming, or they would claim this
		// iteration's messages with a stale timestamp.
		rt.removeInnerLocked(h)
	}
	h.err = nil
	h.started = true
	h.arrivedCount = 0
	for i := range h.arrived {
		h.arrived[i] = false
		h.payloads[i] = nil
	}
	h.msg = gas.Message{}
	h.transfer = proto.Transfer{}
	rt.seq++
	h.startSeq = rt.seq
	rt.openPersist[h.gpu]++
	if h.id != 0 && rt.pcaches[h.gpu].IsSealed(h.id) {
		return nil // cached re-fire: the fast path owns this iteration
	}
	rt.persistInvalidateStartLocked(h)
	rt.postInnerLocked(h, h.parts)
	return nil
}

// postInnerLocked posts n engine-path receives for the handle, all
// carrying the handle's startSeq, in the queue's ascending timestamp
// order: a new iteration's startSeq is the newest timestamp, so its
// receives land at the tail, while mid-iteration reposts after an
// invalidation slot in where they belong, so the posted order the
// engine sees is identical to a run that never sealed at all.
func (rt *Runtime) postInnerLocked(h *PersistentRecv, n int) {
	for i := 0; i < n; i++ {
		r := rt.newRecvLocked()
		r.gpu, r.req, r.seq, r.ph = h.gpu, h.req, h.startSeq, h
		rt.pendingRecvs[h.gpu] = insertSorted(rt.pendingRecvs[h.gpu], 0, r, recvSeq)
		h.inner++
		rt.stats.PostedRecvs++
	}
}

// recvSeq is the sort key of the posted-receive queues.
func recvSeq(r *Recv) uint64 { return r.seq }

// removeInnerLocked cancels the handle's outstanding engine-path
// receives (stranded by a failed iteration's abort).
func (rt *Runtime) removeInnerLocked(h *PersistentRecv) {
	q := rt.pendingRecvs[h.gpu]
	out := q[:0]
	for _, r := range q {
		if r.ph == h {
			continue
		}
		out = append(out, r)
	}
	for i := len(out); i < len(q); i++ {
		q[i] = nil
	}
	rt.pendingRecvs[h.gpu] = out
	h.inner = 0
}

// Done reports whether the current iteration fully delivered.
func (h *PersistentRecv) Done() bool {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.started && h.err == nil && h.arrivedCount == h.parts
}

// Err returns the channel's sticky delivery error (a malformed or
// duplicate partition header — a plain send interleaved on a
// partitioned tuple). Start clears it.
func (h *PersistentRecv) Err() error {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.err
}

// Parrived reports whether partition i of the current iteration
// arrived (MPI_Parrived).
func (h *PersistentRecv) Parrived(i int) bool {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return i >= 0 && i < h.parts && h.arrived[i]
}

// Partition returns partition i's delivered payload (header stripped).
func (h *PersistentRecv) Partition(i int) ([]byte, error) {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	if h.err != nil {
		return nil, h.err
	}
	if i < 0 || i >= h.parts {
		return nil, fmt.Errorf("mpx: partition %d outside [0,%d)", i, h.parts)
	}
	if !h.arrived[i] {
		return nil, ErrNotDelivered
	}
	return h.payloads[i], nil
}

// Message returns the delivered message of a plain (non-partitioned)
// channel's current iteration.
func (h *PersistentRecv) Message() (gas.Message, error) {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	if h.err != nil {
		return gas.Message{}, h.err
	}
	if h.partitioned {
		return gas.Message{}, fmt.Errorf("mpx: Message on partitioned persistent recv %v (use Partition)", h.req)
	}
	if h.arrivedCount < h.parts {
		return gas.Message{}, ErrNotDelivered
	}
	return h.msg, nil
}

// Transfer reports the iteration's accumulated simulated data
// movement.
func (h *PersistentRecv) Transfer() proto.Transfer {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.transfer
}

// Iterations returns the number of completed iterations.
func (h *PersistentRecv) Iterations() int {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.iterations
}

// Sealed reports whether the channel currently holds a sealed cache
// entry.
func (h *PersistentRecv) Sealed() bool {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.id != 0 && h.rt.pcaches[h.gpu].IsSealed(h.id)
}

// Free releases the channel and its cache entry. Freeing mid-iteration
// is an error.
func (h *PersistentRecv) Free() error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return nil
	}
	if h.started && h.err == nil && h.arrivedCount < h.parts {
		return fmt.Errorf("mpx: Free on persistent recv %v mid-iteration", h.req)
	}
	if h.inner > 0 {
		rt.removeInnerLocked(h)
	}
	if h.id != 0 {
		rt.pcaches[h.gpu].Release(h.id)
		h.id = 0
	}
	h.freed = true
	return nil
}

// persistDeliverLocked is the O(1) re-fire fast path, called during
// wire drain for every in-order released frame: if the frame's packed
// header hits a sealed cache entry whose handle is armed, the frame is
// delivered straight into the handle and never touches the unexpected
// queue or the engine. Among several armed same-tuple channels the
// earliest-started wins — exactly the ordered engine's posted-order
// rule, since engine-path receives carry the Start timestamp.
func (rt *Runtime) persistDeliverLocked(g int, m *gas.Message) bool {
	c := rt.pcaches[g]
	if c == nil || c.SealedCount() == 0 {
		return false
	}
	ids := c.SealedForKey(m.Env.Key())
	if len(ids) == 0 {
		return false
	}
	var best *PersistentRecv
	for _, id := range ids {
		h, _ := c.User(id).(*PersistentRecv)
		if h == nil || !h.started || h.arrivedCount >= h.parts {
			continue
		}
		if best == nil || h.startSeq < best.startSeq {
			best = h
		}
	}
	if best == nil {
		return false
	}
	rt.stats.CacheHits++
	rt.rec.Instant(g, evCacheHit, argHandle, int64(best.id), argFlow, int64(m.Flow))
	rt.persistAcceptLocked(best, m, proto.Transfer{}, true)
	return true
}

// persistForwardLocked routes an engine-path delivery into its owning
// handle — the cache-miss path (first iteration, or an iteration after
// an invalidation). tr is the transfer the main delivery loop already
// charged for this message.
func (rt *Runtime) persistForwardLocked(r *Recv, tr proto.Transfer) {
	r.ph.inner--
	rt.stats.CacheMisses++
	rt.persistAcceptLocked(r.ph, &r.msg, tr, false)
}

// persistAcceptLocked lands one message in the handle: partition
// decode, arrival bookkeeping, and the iteration's data movement tr.
// The engine path (cached=false) passes a message the delivery loop
// already matched and charged; on the cached path the engine loop
// never sees the message, so the delivery is charged here — plus the
// (tiny) cached-delivery cost — and tr is ignored.
func (rt *Runtime) persistAcceptLocked(h *PersistentRecv, m *gas.Message, tr proto.Transfer, cached bool) {
	g := h.gpu
	if h.arrivedCount >= h.parts {
		// Only reachable through user error (stray engine-path receives
		// of an aborted iteration): record, consume, stay deterministic.
		h.failLocked(fmt.Errorf("mpx: persistent recv %v: delivery to a completed iteration", h.req))
		return
	}
	payload := m.Payload
	part := 0
	if h.partitioned {
		if len(payload) < partHeaderLen {
			rt.persistAbortLocked(h, fmt.Errorf("mpx: persistent recv %v: %d-byte frame lacks a partition header (plain send on a partitioned tuple?)", h.req, len(payload)))
			return
		}
		part = int(payload[0]) | int(payload[1])<<8
		payload = payload[partHeaderLen:]
		if part >= h.parts {
			rt.persistAbortLocked(h, fmt.Errorf("mpx: persistent recv %v: partition %d outside [0,%d)", h.req, part, h.parts))
			return
		}
		if h.arrived[part] {
			rt.persistAbortLocked(h, fmt.Errorf("mpx: persistent recv %v: partition %d delivered twice in one iteration", h.req, part))
			return
		}
	}
	if cached {
		tr = rt.chargeDeliveryLocked(h.startSeq, m)
		rt.stats.SimSeconds += rt.persistSec
	}
	h.transfer.Bytes += tr.Bytes
	h.transfer.Mode = tr.Mode
	h.transfer.WireSeconds += tr.WireSeconds
	h.transfer.CopySeconds += tr.CopySeconds
	rt.stats.PersistentRecvs++
	h.arrived[part] = true
	h.arrivedCount++
	h.payloads[part] = payload
	h.msg = *m
	if h.arrivedCount == h.parts {
		rt.openPersist[g]--
		h.iterations++
		if !cached && h.err == nil && h.id != 0 && !rt.pcaches[g].IsSealed(h.id) {
			rt.sealCand[g] = append(rt.sealCand[g], h)
		}
	}
}

// failLocked records the channel's sticky error.
func (h *PersistentRecv) failLocked(err error) {
	if h.err == nil {
		h.err = err
	}
}

// persistAbortLocked fails the handle's current iteration: the message
// is consumed, the iteration is marked complete (so Drain terminates
// and Start can re-arm), and the error surfaces through the accessors.
func (rt *Runtime) persistAbortLocked(h *PersistentRecv, err error) {
	h.failLocked(err)
	if h.arrivedCount < h.parts {
		rt.openPersist[h.gpu]--
		h.arrivedCount = h.parts
	}
}

// persistInvalidatePostLocked unseals whatever a non-persistent post
// on GPU g could contest: the (comm, tag) shadow for concrete and
// MPI_ANY_SOURCE requests, the whole communicator for MPI_ANY_TAG.
func (rt *Runtime) persistInvalidatePostLocked(g int, req envelope.Request) {
	c := rt.pcaches[g]
	if c == nil || c.SealedCount() == 0 {
		return
	}
	ids := rt.invScratch[:0]
	if req.Tag == envelope.AnyTag {
		ids = c.InvalidateComm(req.Comm, ids)
	} else {
		ids = c.InvalidateShadow(req.Comm, req.Tag, ids)
	}
	rt.invScratch = ids[:0]
	rt.persistUnsealedLocked(g, ids)
}

// persistInvalidateStartLocked unseals whatever an engine-path
// persistent re-arm could contest. A concrete channel's receives can
// only claim its exact tuple, so only same-key seals are revoked; a
// wildcard channel dirties the same scopes as a plain post.
func (rt *Runtime) persistInvalidateStartLocked(h *PersistentRecv) {
	c := rt.pcaches[h.gpu]
	if c == nil || c.SealedCount() == 0 {
		return
	}
	ids := rt.invScratch[:0]
	if h.wildcard {
		if h.req.Tag == envelope.AnyTag {
			ids = c.InvalidateComm(h.req.Comm, ids)
		} else {
			ids = c.InvalidateShadow(h.req.Comm, h.req.Tag, ids)
		}
	} else {
		ids = c.InvalidateKey(h.env.Key(), ids)
	}
	rt.invScratch = ids[:0]
	rt.persistUnsealedLocked(h.gpu, ids)
}

// persistUnsealedLocked accounts a batch of freshly unsealed handles
// and reposts engine-path receives for any that were unsealed
// mid-iteration (a sealed, armed handle has nothing posted — without a
// repost its remaining partitions would strand in the unexpected
// queue).
func (rt *Runtime) persistUnsealedLocked(g int, ids []match.HandleID) {
	if len(ids) == 0 {
		return
	}
	c := rt.pcaches[g]
	rt.stats.CacheInvalidations += len(ids)
	for _, id := range ids {
		rt.rec.Instant(g, evCacheInvalidate, argHandle, int64(id), 0, 0)
		h, _ := c.User(id).(*PersistentRecv)
		if h == nil {
			continue
		}
		if h.started && h.arrivedCount+h.inner < h.parts {
			rt.postInnerLocked(h, h.parts-h.arrivedCount-h.inner)
		}
	}
}

// persistStepLocked runs GPU g's step-boundary cache maintenance after
// matching and compaction: unseal any tuple with an unexpected-message
// backlog (a cached delivery must never overtake an older unclaimed
// message), then seal the iteration-completed candidates that nothing
// pending contests.
func (rt *Runtime) persistStepLocked(g int) {
	c := rt.pcaches[g]
	if c == nil {
		return
	}
	if c.SealedCount() > 0 {
		for _, m := range rt.pendingMsgs[g] {
			key := m.Env.Key()
			if len(c.SealedForKey(key)) == 0 {
				continue
			}
			ids := c.InvalidateKey(key, rt.invScratch[:0])
			rt.invScratch = ids[:0]
			rt.persistUnsealedLocked(g, ids)
		}
	}
	cands := rt.sealCand[g]
	if len(cands) == 0 {
		return
	}
	for _, h := range cands {
		if h.freed || h.err != nil || h.id == 0 || c.IsSealed(h.id) {
			continue
		}
		if rt.persistContestedLocked(g, h) {
			continue
		}
		if err := c.Seal(h.id); err == nil {
			rt.stats.CacheSeals++
			rt.rec.Instant(g, evCacheSeal, argHandle, int64(h.id), argParts, int64(h.parts))
		}
	}
	for i := range cands {
		cands[i] = nil
	}
	rt.sealCand[g] = cands[:0]
}

// persistContestedLocked reports whether anything still pending on GPU
// g could legally claim the handle's tuple: a posted receive matching
// it, or an unexpected message holding the exact key.
func (rt *Runtime) persistContestedLocked(g int, h *PersistentRecv) bool {
	for _, r := range rt.pendingRecvs[g] {
		if r.req.Matches(h.env) {
			return true
		}
	}
	key := h.env.Key()
	for _, m := range rt.pendingMsgs[g] {
		if m.Env.Key() == key {
			return true
		}
	}
	return false
}

// openPersistLocked counts armed-but-incomplete persistent receives —
// Drain's termination includes them alongside posted receives.
func (rt *Runtime) openPersistLocked() int {
	n := 0
	for _, v := range rt.openPersist {
		n += v
	}
	return n
}
