package match

import (
	"simtmp/internal/simt"
	"simtmp/internal/telemetry"
)

// Interned telemetry names, resolved once at package init so the
// engines' emission paths never touch the intern table (see the
// telemetry package's zero-allocation contract).
var (
	evMatchPass = telemetry.Name("match.pass")
	evUMQDepth  = telemetry.Name("umq.depth")
	evPRQDepth  = telemetry.Name("prq.depth")
	evOccupancy = telemetry.Name("simt.occupancy")
	evBallots   = telemetry.Name("simt.ballots")
	evBranchDiv = telemetry.Name("simt.divergence")
	evProbes    = telemetry.Name("hash.probes")
	argRound    = telemetry.Name("round")
	argMsgs     = telemetry.Name("msgs")
	argMatched  = telemetry.Name("matched")
	argInserted = telemetry.Name("inserted")
)

// emitQueueDepths samples the engine's view of the unexpected-message
// queue (UMQ) and posted-receive queue (PRQ) at the start of a match
// call — the Figure 2 distributions, now visible over time.
func emitQueueDepths(rec *telemetry.Recorder, track, msgs, reqs int) {
	if !rec.Enabled() {
		return
	}
	rec.Counter(track, evUMQDepth, float64(msgs))
	rec.Counter(track, evPRQDepth, float64(reqs))
}

// emitKernelStats records the post-match SIMT statistics as counter
// samples: occupancy at kernel start, cumulative ballot and
// divergence-overhead instruction counts at kernel end.
func emitKernelStats(rec *telemetry.Recorder, track int, base, end float64, occ int, ctrs simt.Counters) {
	if !rec.Enabled() {
		return
	}
	rec.CounterAt(track, evOccupancy, base, float64(occ))
	rec.CounterAt(track, evBallots, end, float64(ctrs.Ballot))
	rec.CounterAt(track, evBranchDiv, end, float64(ctrs.Branch))
	// Kernel-launch boundary: hand the pass's emissions to the live
	// streamer (if any) while the ring still holds them.
	rec.Pump()
}
