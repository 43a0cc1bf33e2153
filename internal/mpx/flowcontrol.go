// Overload protection for the runtime: end-to-end credit flow control
// with bounded queues and deterministic shedding.
//
// The ring layer already refuses writes when a receiver's ring is full
// (ring.ErrNoCredits) — one hop of backpressure. This layer makes the
// mechanism end-to-end, after the receiver-provisioned resource model
// of the CPU-free GPU communication literature: each receiver sizes a
// bounded unexpected-message capacity (Config.UMQCap), splits it into
// per-sender credit windows, and advertises consumption back to the
// senders as cumulative grants piggybacked on transport acks (with a
// zero-window probe refresh when a stalled flow has no acks to ride).
// A sender holds a frame until its flow sequence number falls inside
// the receiver-granted window — transmit iff flow ≤ consumed + W — so
// a flow's unmatched residency at the receiver (wire + reorder buffer
// + unexpected queue) never exceeds W by construction. The sequence
// form (rather than counting outstanding transmissions) matters for
// liveness: a shed frame recovered later is the *lowest* untransmitted
// sequence of its flow, so it is always inside the window and can
// never be credit-blocked behind the very frames waiting for it.
//
// When credits are exhausted, sends queue in the flow's staging buffer
// (the outbox). When Config.StagingCap bounds that buffer and it
// fills, the runtime sheds deterministically by Config.Shed policy:
//
//   - ShedReject refuses the new send with a typed ErrBackpressure —
//     the caller decides (drop, retry later, push back upstream) —
//     and burns no sequence number, so the flow stays gap-free;
//   - ShedDropOldest / ShedDropNewest park a frame (the head of the
//     staging queue, or the new send) in a sender-side ledger. Parked
//     frames hold no wire or receiver resources; they are recovered —
//     so reliability is preserved — when the receiver notices the
//     flow-sequence gap and NACKs it, or by a deadline probe when no
//     later traffic exposes the gap. Every accepted send is still
//     delivered exactly once; a shed is never silent loss.
//
// Each endpoint additionally runs a four-state health machine,
// Healthy → Congested → Shedding → Recovering, driven by queue-
// occupancy hysteresis (HealthConfig). Transitions, sheds, NACKs and
// credit stalls are counted in Stats and emitted as telemetry events,
// so a Perfetto trace shows congestion waves as state bands per GPU.
//
// Everything here runs under rt.mu in deterministic progress order, so
// shed counts, NACK counts and state transitions are a pure function
// of the configuration — byte-identical across replays and across
// sequential/parallel engine execution.
package mpx

import (
	"errors"
	"fmt"
)

// ErrBackpressure is the typed overload sentinel: a bounded queue
// (staging buffer under ShedReject, or the posted-receive queue under
// PRQCap) refused new work. It is deterministic flow control, not
// failure — callers retry after draining or shed the work themselves.
var ErrBackpressure = errors.New("mpx: backpressure: bounded queue full")

// ShedPolicy selects what a sender does when a bounded staging buffer
// is full.
type ShedPolicy int

const (
	// ShedReject (the default) refuses the new send with
	// ErrBackpressure. Sender memory stays bounded; the caller owns
	// the message's fate.
	ShedReject ShedPolicy = iota
	// ShedDropOldest parks the oldest staged frame to admit the new
	// one; the parked frame is recovered via NACK or deadline probe.
	ShedDropOldest
	// ShedDropNewest accepts the send but parks the new frame
	// directly; it is recovered via NACK or deadline probe.
	ShedDropNewest
)

// String names the policy.
func (p ShedPolicy) String() string {
	switch p {
	case ShedReject:
		return "reject"
	case ShedDropOldest:
		return "drop-oldest"
	case ShedDropNewest:
		return "drop-newest"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// HealthState is one endpoint's position in the overload state
// machine.
type HealthState int

const (
	// Healthy: occupancy below the high watermark, no sheds.
	Healthy HealthState = iota
	// Congested: occupancy crossed the high watermark; credits and
	// staging are absorbing the excess, nothing shed yet.
	Congested
	// Shedding: the shed policy fired this window; offered load
	// exceeds what bounded queues can absorb.
	Shedding
	// Recovering: occupancy fell back under the low watermark; the
	// endpoint is draining its backlog and must hold steady for
	// HealthConfig.RecoverySteps before it is Healthy again.
	Recovering
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Congested:
		return "congested"
	case Shedding:
		return "shedding"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// HealthConfig parameterizes the per-endpoint health machine's
// hysteresis. The zero value takes the defaults.
type HealthConfig struct {
	// HighWater is the occupancy fraction (of the tightest configured
	// cap) at which an endpoint turns Congested (default 0.75).
	HighWater float64
	// LowWater is the occupancy fraction below which a Congested or
	// Shedding endpoint turns Recovering (default 0.25). It must stay
	// below HighWater — the gap is the hysteresis band that stops the
	// machine from flapping at a watermark.
	LowWater float64
	// RecoverySteps is how many consecutive progress steps a
	// Recovering endpoint must hold occupancy under LowWater before it
	// is declared Healthy again (default 8).
	RecoverySteps int
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.HighWater <= 0 {
		h.HighWater = 0.75
	}
	if h.LowWater <= 0 {
		h.LowWater = 0.25
	}
	if h.RecoverySteps <= 0 {
		h.RecoverySteps = 8
	}
	return h
}

// EndpointHealth is one endpoint's health snapshot.
type EndpointHealth struct {
	State HealthState
	// SinceSimSeconds is the simulated time of the last transition.
	SinceSimSeconds float64
	// Occupancy is the current fraction of the tightest configured
	// bound in use (may exceed 1 when a parked backlog outgrows the
	// staging cap).
	Occupancy float64
}

// endpointHealth is the runtime-internal machine state per GPU.
type endpointHealth struct {
	state     HealthState
	since     float64 // sim time of last transition
	lowStreak int     // consecutive steps under LowWater while Recovering
	shed      bool    // a shed/reject hit this endpoint since the last step
}

// FlowControlInfo reports the runtime's resolved overload-protection
// parameters (fixed at construction).
type FlowControlInfo struct {
	// Active reports whether any bound is configured.
	Active bool
	// CreditWindow is the per-flow end-to-end credit window (0 when
	// UMQCap is unset).
	CreditWindow int
	// UMQCapEffective is the enforced per-GPU unexpected-message bound:
	// CreditWindow × (GPUs−1). It is ≤ the configured UMQCap whenever
	// UMQCap ≥ GPUs−1.
	UMQCapEffective int
	// PRQCap and StagingCap echo the configuration.
	PRQCap, StagingCap int
	// Shed echoes the policy.
	Shed ShedPolicy
}

// FlowControl returns the resolved overload-protection parameters.
func (rt *Runtime) FlowControl() FlowControlInfo {
	return FlowControlInfo{
		Active:          rt.overload,
		CreditWindow:    rt.creditWindow,
		UMQCapEffective: rt.creditWindow * (rt.cfg.GPUs - 1),
		PRQCap:          rt.cfg.PRQCap,
		StagingCap:      rt.cfg.StagingCap,
		Shed:            rt.cfg.Shed,
	}
}

// SendWouldBlock reports whether a Send src→dst at this instant would
// be refused with ErrBackpressure: the ShedReject policy with the
// flow's staging buffer full. Under the drop policies Send always
// accepts (sheds are parked and recovered), so this reports false.
// Backpressure-aware clients probe it to shed work at the source
// instead of paying for a refused call; the answer is exact for a
// single-threaded driver and advisory under concurrent senders. A GPU
// index outside [0, GPUs) reports false: such a send fails with a
// range error, not ErrBackpressure.
func (rt *Runtime) SendWouldBlock(src, dst int) bool {
	if rt.cfg.StagingCap <= 0 || rt.cfg.Shed != ShedReject || !rt.validGPU(src) || !rt.validGPU(dst) {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fl := rt.tx[src][dst]
	return fl != nil && fl.staged() >= rt.cfg.StagingCap
}

// PostRecvWouldBlock reports whether a PostRecv on dst at this instant
// would be refused with ErrBackpressure (PRQCap reached). Exactness
// caveats as SendWouldBlock, and so is the false answer for a GPU
// index outside [0, GPUs).
func (rt *Runtime) PostRecvWouldBlock(dst int) bool {
	if rt.cfg.PRQCap <= 0 || !rt.validGPU(dst) {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.pendingRecvs[dst]) >= rt.cfg.PRQCap
}

// Health returns endpoint g's current health snapshot.
func (rt *Runtime) Health(g int) (EndpointHealth, error) {
	if !rt.validGPU(g) {
		return EndpointHealth{}, fmt.Errorf("mpx: GPU %d outside [0,%d)", g, rt.cluster.Size())
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	h := rt.health[g]
	return EndpointHealth{State: h.state, SinceSimSeconds: h.since, Occupancy: rt.occupancyLocked(g)}, nil
}

// hasCreditLocked reports whether flow fl may transmit frame fr now:
// its flow sequence number lies inside the receiver-granted window
// (consumedSeen, consumedSeen+W]. Because grants are cumulative
// counts of matched frames and flow numbers are dense, this bounds the
// flow's unmatched receiver residency at W; and because a recovered
// shed frame is the lowest untransmitted sequence of its flow, it is
// always inside the window — recovery can never be credit-blocked.
func (rt *Runtime) hasCreditLocked(fl *txFlow, fr *frame) bool {
	return fr.flow <= fl.consumedSeen+uint64(rt.creditWindow)
}

// grantCreditsLocked applies the receiver's cumulative matched count
// for (dst ← src) to the sender flow — the credit grant a transport
// ack piggybacks. Grants are cumulative, so reapplying one (or losing
// the ack that carried it) can never mint or leak a credit.
func (rt *Runtime) grantCreditsLocked(fl *txFlow) {
	if rx := rt.rx[fl.dst][fl.src]; rx != nil && rx.matched > fl.consumedSeen {
		fl.consumedSeen = rx.matched
	}
}

// shedSendLocked handles a send that found flow fl's staging buffer
// full. Under ShedReject it returns the typed error for the caller;
// under the drop policies the send is accepted: DropOldest parks the
// staging head to make room, and DropNewest reports parkNew so the
// caller parks the new frame instead of staging it.
func (rt *Runtime) shedSendLocked(fl *txFlow) (parkNew bool, err error) {
	rt.stats.Sheds++
	rt.healthNoteShedLocked(fl.src)
	switch rt.cfg.Shed {
	case ShedDropOldest:
		rt.parkLocked(fl, fl.popHead())
		return false, nil
	case ShedDropNewest:
		return true, nil
	default: // ShedReject
		rt.stats.ShedRejects++
		rt.rec.Instant(fl.src, evShed, argDst, int64(fl.dst), argQueued, int64(fl.staged()))
		return false, fmt.Errorf("%w: staging %d→%d holds %d frame(s) (cap %d, policy %v)",
			ErrBackpressure, fl.src, fl.dst, fl.staged(), rt.cfg.StagingCap, rt.cfg.Shed)
	}
}

// parkLocked moves a frame into the flow's shed ledger: it holds no
// wire or receiver resources until a NACK or its deadline probe
// recovers it. The ledger stays sorted by flow sequence so recovery
// re-offers frames in order.
func (rt *Runtime) parkLocked(fl *txFlow, fr *frame) {
	fr.deadline = rt.now + rt.parkTimeout
	fl.parked = insertSorted(fl.parked, 0, fr, frameFlow)
	rt.stats.ShedDrops++
	rt.rec.Instant(fl.src, evShed, argDst, int64(fl.dst), argFlow, int64(fr.flow))
}

// unparkLocked returns parked frame i to the staging queue (in flow
// order) where the normal transmit path picks it up.
func (rt *Runtime) unparkLocked(fl *txFlow, i int) {
	fr := fl.parked[i]
	fl.parked = append(fl.parked[:i], fl.parked[i+1:]...)
	fl.outbox = insertSorted(fl.outbox, fl.outHead, fr, frameFlow)
	rt.stats.ShedRecovered++
}

// unparkDueLocked recovers parked frames whose deadline probe fired —
// the backstop for sheds no later traffic ever exposes as a gap (e.g.
// a DropNewest on the last frame of a flow). Returns frames moved.
func (rt *Runtime) unparkDueLocked(fl *txFlow) int {
	moved := 0
	for i := 0; i < len(fl.parked); {
		if rt.now < fl.parked[i].deadline {
			i++
			continue
		}
		rt.unparkLocked(fl, i)
		moved++
	}
	return moved
}

// nackGapsLocked is the receiver-side gap scan: after draining GPU g,
// any rxFlow holding out-of-order frames has a flow-sequence gap
// [next, min(held)). Conceptually the receiver NACKs each missing
// sequence number to its sender; in-process the signal lands the same
// step. A NACK whose sequence is parked recovers the frame (the
// "NACK-triggered retransmit" of the shed contract); sequences lost on
// the wire instead of shed are left to the RTO path, which already
// owns them. Each missing sequence is NACKed once (nackedBelow), so
// the counters are exact, not per-step noise.
func (rt *Runtime) nackGapsLocked(g int) int {
	moved := 0
	for src := range rt.rx[g] {
		rx := rt.rx[g][src]
		if rx == nil || rx.ledger.pending() == 0 {
			continue
		}
		minHeld := rx.ledger.minHeld()
		from := rx.ledger.next
		if rx.nackedBelow > from {
			from = rx.nackedBelow
		}
		fl := rt.tx[src][g]
		for f := from; f < minHeld; f++ {
			rt.stats.Nacks++
			rt.rec.Instant(g, evNack, argDst, int64(src), argFlow, int64(f))
			if fl == nil {
				continue
			}
			for i, fr := range fl.parked {
				if fr.flow == f {
					rt.unparkLocked(fl, i)
					rt.stats.NackRetransmits++
					moved++
					break
				}
			}
		}
		if minHeld > rx.nackedBelow {
			rx.nackedBelow = minHeld
		}
	}
	return moved
}

// healthNoteShedLocked marks endpoint g as having shed work this step;
// the state machine consumes the mark at the step boundary.
func (rt *Runtime) healthNoteShedLocked(g int) {
	if rt.overload {
		rt.health[g].shed = true
	}
}

// occupancyLocked computes endpoint g's queue occupancy: the worst
// fraction-in-use across every configured bound — unexpected messages
// against the effective UMQ cap, posted receives against PRQCap, and
// each outgoing flow's staging (queued + parked) against StagingCap.
// It may exceed 1 when a parked backlog outgrows the staging cap.
func (rt *Runtime) occupancyLocked(g int) float64 {
	occ := 0.0
	if rt.creditWindow > 0 {
		if umqCap := rt.creditWindow * (rt.cfg.GPUs - 1); umqCap > 0 {
			if f := float64(len(rt.pendingMsgs[g])) / float64(umqCap); f > occ {
				occ = f
			}
		}
	}
	if rt.cfg.PRQCap > 0 {
		if f := float64(len(rt.pendingRecvs[g])) / float64(rt.cfg.PRQCap); f > occ {
			occ = f
		}
	}
	if rt.cfg.StagingCap > 0 {
		for dst := range rt.tx[g] {
			if fl := rt.tx[g][dst]; fl != nil {
				if f := float64(fl.staged()+len(fl.parked)) / float64(rt.cfg.StagingCap); f > occ {
					occ = f
				}
			}
		}
	}
	return occ
}

// stepHealthLocked advances every endpoint's health machine one
// progress step: hysteresis on occupancy plus the shed mark, then
// time-in-state accrual for the state the endpoint ends the step in.
func (rt *Runtime) stepHealthLocked() {
	if !rt.overload {
		return
	}
	hc := rt.cfg.Health
	for g := range rt.health {
		h := &rt.health[g]
		occ := rt.occupancyLocked(g)
		prev := h.state
		switch h.state {
		case Healthy:
			if h.shed {
				h.state = Shedding
			} else if occ >= hc.HighWater {
				h.state = Congested
			}
		case Congested:
			if h.shed {
				h.state = Shedding
			} else if occ <= hc.LowWater {
				h.state = Recovering
			}
		case Shedding:
			if !h.shed && occ <= hc.LowWater {
				h.state = Recovering
			}
		case Recovering:
			switch {
			case h.shed:
				h.state = Shedding
			case occ >= hc.HighWater:
				h.state = Congested
			case occ <= hc.LowWater:
				h.lowStreak++
				if h.lowStreak >= hc.RecoverySteps {
					h.state = Healthy
				}
			default:
				h.lowStreak = 0
			}
		}
		if h.state != prev {
			if h.state == Recovering {
				h.lowStreak = 0
			}
			h.since = rt.now
			rt.stats.StateTransitions++
			rt.rec.Instant(g, evHealth, argState, int64(h.state), argOcc, int64(occ*1000))
		}
		switch h.state {
		case Healthy:
			rt.stats.HealthySeconds += rt.poll
		case Congested:
			rt.stats.CongestedSeconds += rt.poll
		case Shedding:
			rt.stats.SheddingSeconds += rt.poll
		case Recovering:
			rt.stats.RecoveringSeconds += rt.poll
		}
		h.shed = false
	}
}
