// Persistent-request plane of the runtime (DESIGN.md §15): MPI-4-style
// SendInit/RecvInit handles that bind a channel's envelope and buffer
// once and re-fire it every iteration. Each iteration carries exactly
// one message.
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
// buffer bound at init, re-fired per iteration by Start. Re-firing
// draws its frame from the runtime's free list, which every ack
// refills, so the steady-state path allocates nothing.
type PersistentSend struct {
	rt      *Runtime
	dst     int
	env     envelope.Envelope
	payload []byte
	pending bool // a Start's fire was refused by ErrBackpressure and awaits retry
	freed   bool
}

// SendInit creates a persistent send channel src→dst carrying payload.
// The payload is bound by reference, like Send: the caller may rewrite
// its contents between iterations (or swap the buffer via Bind).
func (rt *Runtime) SendInit(src, dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) (*PersistentSend, error) {
	return rt.sendInit(src, envelope.DefaultStream, dst, tag, comm, payload)
}

// sendInit builds a persistent send channel after the checks every
// send makes.
func (rt *Runtime) sendInit(src int, stream envelope.Stream, dst int, tag envelope.Tag, comm envelope.Comm, payload []byte) (*PersistentSend, error) {
	rt.mu.Lock()
	env, err := rt.sendEnvLocked(src, stream, dst, tag, comm)
	rt.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &PersistentSend{rt: rt, dst: dst, env: env, payload: payload}, nil
}

// Start re-fires the channel: its payload departs through the send
// path every Send takes (shedding, staging, credit and accounting
// alike). A Start refused by ErrBackpressure (ShedReject) burns
// nothing; the next Start retries the same fire.
func (h *PersistentSend) Start() error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return fmt.Errorf("mpx: Start on freed persistent send %v", h.env)
	}
	accepted, err := rt.stageLocked(h.dst, h.env, h.payload)
	h.pending = !accepted
	if accepted {
		rt.stats.PersistentSends++
	}
	return err
}

// Bind rebinds the channel's payload (by reference) for later
// iterations. Binding while a refused fire awaits its retry is an
// error.
func (h *PersistentSend) Bind(payload []byte) error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return fmt.Errorf("mpx: Bind on freed persistent send %v", h.env)
	}
	if h.pending {
		return fmt.Errorf("mpx: Bind on persistent send %v mid-iteration", h.env)
	}
	h.payload = payload
	return nil
}

// Free releases the channel. Freeing while a refused fire awaits its
// retry is an error.
func (h *PersistentSend) Free() error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return nil
	}
	if h.pending {
		return fmt.Errorf("mpx: Free on persistent send %v mid-iteration", h.env)
	}
	h.freed = true
	return nil
}

// PersistentRecv is a persistent receive channel. Start re-arms it for
// one iteration; the iteration completes at its one delivery. Concrete
// channels earn a sealed cache entry after a full-engine iteration and
// are then fed by the O(1) fast path; wildcard channels are legal
// (where the level admits them) but run the engine every iteration.
//
// An engine-path receive is outstanding only while an iteration is
// open, and at most one: Start posts it unless the channel is sealed,
// an invalidation reposts it for a sealed open iteration, and the
// iteration's delivery consumes it. A sealed channel never has one —
// any posted receive matching its tuple contests the seal.
type PersistentRecv struct {
	rt       *Runtime
	gpu      int
	req      envelope.Request
	env      envelope.Envelope // concrete tuple (zero when wildcard)
	wildcard bool
	id       match.HandleID // 0 = no cache entry (wildcard or nocache mode)

	started    bool
	freed      bool
	startSeq   uint64
	arrived    bool // the current iteration's message was delivered
	msg        gas.Message
	transfer   proto.Transfer
	iterations int
}

// RecvInit creates a persistent receive channel on GPU dst for the
// (src, tag, comm) tuple. Wildcards follow the level's PostRecv rules.
func (rt *Runtime) RecvInit(dst int, src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*PersistentRecv, error) {
	return rt.recvInit(dst, envelope.DefaultStream, src, tag, comm)
}

func (rt *Runtime) recvInit(dst int, stream envelope.Stream, src envelope.Rank, tag envelope.Tag, comm envelope.Comm) (*PersistentRecv, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	req, err := rt.recvReqLocked(dst, stream, src, tag, comm)
	if err != nil {
		return nil, err
	}
	h := &PersistentRecv{rt: rt, gpu: dst, req: req, wildcard: req.HasWildcard()}
	if !h.wildcard {
		h.env = envelope.Envelope{Src: src, Tag: tag, Comm: comm, Stream: stream}
		if !rt.cfg.DisablePersistentCache {
			if rt.pcaches[dst] == nil {
				rt.pcaches[dst] = match.NewPersistentCache()
			}
			if h.id, err = rt.pcaches[dst].Alloc(h.env, h); err != nil {
				return nil, err
			}
		}
	}
	return h, nil
}

// Start re-arms the channel for one iteration. If the channel is
// sealed, nothing is posted: the arriving frame resolves through the
// cache during wire drain. Otherwise one engine-path receive is posted
// at the Start's logical timestamp, so cached and engine-replayed runs
// see identical posted orders and clocks.
func (h *PersistentRecv) Start() error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return fmt.Errorf("mpx: Start on freed persistent recv %v", h.req)
	}
	if h.started && !h.arrived {
		return fmt.Errorf("mpx: persistent recv %v: previous iteration incomplete", h.req)
	}
	h.started = true
	h.arrived = false
	h.msg = gas.Message{}
	h.transfer = proto.Transfer{}
	rt.seq++
	h.startSeq = rt.seq
	rt.openPersist[h.gpu]++
	if h.id != 0 && rt.pcaches[h.gpu].IsSealed(h.id) {
		return nil // cached re-fire: the fast path owns this iteration
	}
	rt.persistInvalidateStartLocked(h)
	rt.postInnerLocked(h)
	return nil
}

// postInnerLocked posts the handle's engine-path receive, carrying the
// handle's startSeq, in the queue's ascending timestamp order: a new
// iteration's startSeq is the newest timestamp, so its receive lands
// at the tail, while a mid-iteration repost after an invalidation
// slots in where it belongs, so the posted order the engine sees is
// identical to a run that never sealed at all.
func (rt *Runtime) postInnerLocked(h *PersistentRecv) {
	r := rt.newRecvLocked()
	r.gpu, r.req, r.seq, r.ph = h.gpu, h.req, h.startSeq, h
	rt.pendingRecvs[h.gpu] = insertSorted(rt.pendingRecvs[h.gpu], 0, r, recvSeq)
	rt.stats.PostedRecvs++
}

// recvSeq is the sort key of the posted-receive queues.
func recvSeq(r *Recv) uint64 { return r.seq }

// Done reports whether the current iteration delivered.
func (h *PersistentRecv) Done() bool {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.started && h.arrived
}

// Message returns the current iteration's delivered message.
func (h *PersistentRecv) Message() (gas.Message, error) {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	if !h.arrived {
		return gas.Message{}, ErrNotDelivered
	}
	return h.msg, nil
}

// Transfer reports the iteration's simulated data movement.
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
// is an error, so a freed channel has no engine-path receive posted.
func (h *PersistentRecv) Free() error {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h.freed {
		return nil
	}
	if h.started && !h.arrived {
		return fmt.Errorf("mpx: Free on persistent recv %v mid-iteration", h.req)
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
		if h == nil || !h.started || h.arrived {
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
	rt.persistAcceptLocked(best, m, rt.chargeDeliveryLocked(best.startSeq, m), true)
	return true
}

// persistForwardLocked routes an engine-path delivery into its owning
// handle — the cache-miss path (first iteration, or an iteration after
// an invalidation). tr is the transfer the main delivery loop already
// charged for this message.
func (rt *Runtime) persistForwardLocked(r *Recv, tr proto.Transfer) {
	rt.stats.CacheMisses++
	rt.persistAcceptLocked(r.ph, &r.msg, tr, false)
}

// persistAcceptLocked completes the handle's open iteration with its
// one message and data movement tr. The cached path also bills the
// (tiny) cached-delivery cost; an engine-path completion nominates an
// unsealed concrete handle for sealing at the step boundary.
func (rt *Runtime) persistAcceptLocked(h *PersistentRecv, m *gas.Message, tr proto.Transfer, cached bool) {
	g := h.gpu
	if cached {
		rt.stats.SimSeconds += rt.persistSec
	}
	h.transfer = tr
	rt.stats.PersistentRecvs++
	h.arrived = true
	h.msg = *m
	rt.openPersist[g]--
	h.iterations++
	if !cached && h.id != 0 && !rt.pcaches[g].IsSealed(h.id) {
		rt.sealCand[g] = append(rt.sealCand[g], h)
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
// and reposts the engine-path receive of any that were unsealed
// mid-iteration (a sealed, armed handle has nothing posted — without a
// repost its message would strand in the unexpected queue).
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
		if h.started && !h.arrived {
			rt.postInnerLocked(h)
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
		if h.freed || h.id == 0 || c.IsSealed(h.id) {
			continue
		}
		if rt.persistContestedLocked(g, h) {
			continue
		}
		if err := c.Seal(h.id); err == nil {
			rt.stats.CacheSeals++
			rt.rec.Instant(g, evCacheSeal, argHandle, int64(h.id), 0, 0)
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
