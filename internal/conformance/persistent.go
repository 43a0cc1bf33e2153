// Persistent-mode conformance: differential validation of the sealed
// match-handle cache (mpx SendInit/RecvInit, DESIGN.md §15). The cache
// is a pure transparency layer by contract — a cached re-fire must be
// observably identical to running the full engine every iteration. The
// suite enforces the contract literally: every seeded workload runs
// twice, once with the cache enabled and once with
// Config.DisablePersistentCache, and every delivered byte (per
// channel, per iteration, per partition, including mid-run injected
// plain traffic) must be equal between the two arms.
//
// Workloads are iterative fixed-pattern programs — the traffic
// persistent requests exist for — with adversarial interleavings
// mixed in: plain and partitioned channels, same-tuple channel pairs
// at the ordered levels, and mid-run injections of non-persistent
// receives (wildcard ones where the level admits them) plus matching
// sends on a persistent channel's own (comm, tag) shadow, which force
// the invalidation path: the handle unseals mid-iteration, reposts
// through the engine, and must still deliver exactly what the
// engine-only run delivers. Workloads are deterministic per
// (seed, index, level): a failure replays exactly via the reported
// handle.
package conformance

import (
	"bytes"
	"fmt"
	"math/rand"

	"simtmp/internal/envelope"
	"simtmp/internal/gas"
	"simtmp/internal/mpx"
	"simtmp/internal/simt"
)

// pchan is one persistent channel of a workload.
type pchan struct {
	src, dst int
	tag      envelope.Tag
	parts    int // 1 = plain channel
}

// pinject is one mid-run plain-traffic injection: a non-persistent
// receive on channel ch's (comm, tag) shadow followed by a matching
// send — the post that must unseal the channel.
type pinject struct {
	ch     int
	anySrc bool // AnySource receive (FullMPI workloads only)
}

// pworkload is the pure data a persistent workload executes — built
// once, run identically by both arms.
type pworkload struct {
	gpus   int
	chans  []pchan
	iters  int
	inject [][]pinject // per iteration
	fire   [][]int     // per partitioned channel: Pready order
}

// buildPersistentWorkload derives workload i of a seeded run at one
// level.
func buildPersistentWorkload(level mpx.Level, seed int64, i int) pworkload {
	const mixMul = int64(-0x61C8864680B583EB) // golden-ratio multiplier (2^64/φ)
	rng := rand.New(rand.NewSource(seed ^ int64(i)*mixMul ^ int64(level)<<7))

	w := pworkload{gpus: 2 + rng.Intn(3)}
	nc := 3 + rng.Intn(8)
	for c := 0; c < nc; c++ {
		src := rng.Intn(w.gpus)
		dst := (src + 1 + rng.Intn(w.gpus-1)) % w.gpus
		ch := pchan{src: src, dst: dst, tag: envelope.Tag(c), parts: 1}
		if rng.Float64() < 0.3 {
			ch.parts = 2 + rng.Intn(3)
		} else if level != mpx.Unordered && c > 0 && rng.Float64() < 0.3 {
			// Same-tuple channel pair (ordered levels only: at Unordered
			// the runtime's channels must own unique tuples). Only plain
			// channels may share — a partitioned tuple is owned.
			if prev := w.chans[rng.Intn(c)]; prev.parts == 1 {
				ch = prev
			}
		}
		w.chans = append(w.chans, ch)
	}
	w.iters = 4 + rng.Intn(7)
	w.inject = make([][]pinject, w.iters)
	for k := range w.inject {
		// Iteration 0 runs the engine anyway; inject from iteration 2 on
		// so invalidation hits sealed handles, not unsealed ones.
		if k < 2 || rng.Float64() > 0.35 {
			continue
		}
		inj := pinject{ch: rng.Intn(nc)}
		if w.chans[inj.ch].parts > 1 {
			// A plain send on a partitioned tuple is a usage error by
			// contract; injections target plain channels.
			inj.ch = 0
			if w.chans[0].parts > 1 {
				continue
			}
		}
		inj.anySrc = level == mpx.FullMPI && rng.Float64() < 0.5
		w.inject[k] = append(w.inject[k], inj)
	}
	w.fire = make([][]int, nc)
	for c, ch := range w.chans {
		if ch.parts > 1 {
			w.fire[c] = rng.Perm(ch.parts)
		}
	}
	return w
}

// chanPayload derives the deterministic payload of (channel, iteration,
// partition).
func chanPayload(c, k, p int) []byte {
	n := 3 + (c+3*k+5*p)%13
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(31*c + 7*k + 13*p + j)
	}
	return b
}

// injPayload derives the payload of injected plain send j of iteration
// k.
func injPayload(k, j int) []byte {
	return []byte{0xA5, byte(k), byte(j)}
}

// runPersistentArm executes the workload on one runtime configuration
// and returns the flattened observation log: every delivered payload
// and envelope in deterministic order. Byte-equality of two arms' logs
// is the conformance assertion.
func runPersistentArm(level mpx.Level, w pworkload, disableCache bool) ([]byte, mpx.Stats, error) {
	rt := mpx.New(mpx.Config{Level: level, GPUs: w.gpus, DisablePersistentCache: disableCache})
	var log bytes.Buffer

	sends := make([]*mpx.PersistentSend, len(w.chans))
	recvs := make([]*mpx.PersistentRecv, len(w.chans))
	for c, ch := range w.chans {
		var err error
		if ch.parts > 1 {
			parts := make([][]byte, ch.parts)
			for p := range parts {
				parts[p] = chanPayload(c, 0, p)
			}
			sends[c], err = rt.SendInitPartitioned(ch.src, ch.dst, ch.tag, 0, parts)
			if err == nil {
				recvs[c], err = rt.RecvInitPartitioned(ch.dst, envelope.Rank(ch.src), ch.tag, 0, ch.parts)
			}
		} else {
			sends[c], err = rt.SendInit(ch.src, ch.dst, ch.tag, 0, chanPayload(c, 0, 0))
			if err == nil {
				recvs[c], err = rt.RecvInit(ch.dst, envelope.Rank(ch.src), ch.tag, 0)
			}
		}
		if err != nil {
			return nil, rt.Stats(), fmt.Errorf("init channel %d: %w", c, err)
		}
	}

	for k := 0; k < w.iters; k++ {
		// Rebind this iteration's payloads, then arm every receive
		// before anything fires (NoUnexpected needs the full wall up
		// front; the other levels get the same schedule so the arms
		// stay comparable).
		for c, ch := range w.chans {
			for p := 0; p < ch.parts; p++ {
				if err := sends[c].Bind(p, chanPayload(c, k, p)); err != nil {
					return nil, rt.Stats(), fmt.Errorf("iter %d bind %d.%d: %w", k, c, p, err)
				}
			}
			if err := recvs[c].Start(); err != nil {
				return nil, rt.Stats(), fmt.Errorf("iter %d recv start %d: %w", k, c, err)
			}
		}
		// Mid-run injections: a plain post on a sealed channel's shadow
		// (receive first, so its message always has a home), forcing
		// invalidation while the iteration is armed.
		var injected []*mpx.Recv
		for j, inj := range w.inject[k] {
			ch := w.chans[inj.ch]
			src := envelope.Rank(ch.src)
			if inj.anySrc {
				src = envelope.AnySource
			}
			r, err := rt.PostRecv(ch.dst, src, ch.tag, 0)
			if err != nil {
				return nil, rt.Stats(), fmt.Errorf("iter %d inject recv %d: %w", k, j, err)
			}
			injected = append(injected, r)
			if err := rt.Send(ch.src, ch.dst, ch.tag, 0, injPayload(k, j)); err != nil {
				return nil, rt.Stats(), fmt.Errorf("iter %d inject send %d: %w", k, j, err)
			}
		}
		for c := range w.chans {
			if err := sends[c].Start(); err != nil {
				return nil, rt.Stats(), fmt.Errorf("iter %d send start %d: %w", k, c, err)
			}
			for _, p := range w.fire[c] {
				if err := sends[c].Pready(p); err != nil {
					return nil, rt.Stats(), fmt.Errorf("iter %d pready %d.%d: %w", k, c, p, err)
				}
			}
		}
		done, err := rt.Drain(5000)
		if err != nil {
			return nil, rt.Stats(), fmt.Errorf("iter %d drain: %w", k, err)
		}
		if !done {
			return nil, rt.Stats(), fmt.Errorf("iter %d drain left receives open", k)
		}
		// Observation log: every channel's delivered bytes, then the
		// injected receives', each tagged with its envelope.
		for c, ch := range w.chans {
			if err := recvs[c].Err(); err != nil {
				return nil, rt.Stats(), fmt.Errorf("iter %d channel %d: %w", k, c, err)
			}
			for p := 0; p < ch.parts; p++ {
				var payload []byte
				if ch.parts > 1 {
					payload, err = recvs[c].Partition(p)
				} else {
					var m gas.Message
					m, err = recvs[c].Message()
					payload = m.Payload
				}
				if err != nil {
					return nil, rt.Stats(), fmt.Errorf("iter %d read %d.%d: %w", k, c, p, err)
				}
				fmt.Fprintf(&log, "c%d.%d.%d:%x;", k, c, p, payload)
			}
		}
		for j, r := range injected {
			m, err := r.Message()
			if err != nil {
				return nil, rt.Stats(), fmt.Errorf("iter %d injected recv %d unread: %w", k, j, err)
			}
			fmt.Fprintf(&log, "i%d.%d:%d.%d:%x;", k, j, m.Env.Src, m.Env.Tag, m.Payload)
		}
	}
	for c := range w.chans {
		if err := sends[c].Free(); err != nil {
			return nil, rt.Stats(), fmt.Errorf("free send %d: %w", c, err)
		}
		if err := recvs[c].Free(); err != nil {
			return nil, rt.Stats(), fmt.Errorf("free recv %d: %w", c, err)
		}
	}
	return log.Bytes(), rt.Stats(), nil
}

// PersistentWorkload runs workload i of a seeded persistent run at one
// level through both arms — cache enabled and DisablePersistentCache —
// and verifies the observation logs are byte-equal. It returns both
// arms' stats; a non-nil error is a conformance violation. It is the
// replay handle reported by failures.
func PersistentWorkload(level mpx.Level, seed int64, i int) (cached, plain mpx.Stats, err error) {
	w := buildPersistentWorkload(level, seed, i)
	clog, cst, err := runPersistentArm(level, w, false)
	if err != nil {
		return cst, plain, fmt.Errorf("cached arm: %w", err)
	}
	plog, pst, err := runPersistentArm(level, w, true)
	if err != nil {
		return cst, pst, fmt.Errorf("nocache arm: %w", err)
	}
	if !bytes.Equal(clog, plog) {
		return cst, pst, fmt.Errorf("cached re-fire diverged from full-engine replay:\n cached: %s\n engine: %s", clog, plog)
	}
	// The nocache arm must be a true bypass, and the cached arm must
	// actually exercise the engine at least once per channel.
	if pst.CacheHits != 0 || pst.CacheSeals != 0 {
		return cst, pst, fmt.Errorf("nocache arm used the cache: %+v", pst)
	}
	if cst.CacheMisses == 0 {
		return cst, pst, fmt.Errorf("cached arm never ran the engine: %+v", cst)
	}
	return cst, pst, nil
}

// PersistentFailure records one violated workload with its replay
// handle.
type PersistentFailure struct {
	Level mpx.Level
	Index int
	Seed  int64
	Err   error
}

// String formats the failure with the replay recipe.
func (f PersistentFailure) String() string {
	return fmt.Sprintf("%v: workload %d (replay: conformance.PersistentWorkload(%v, %d, %d)): %v",
		f.Level, f.Index, f.Level, f.Seed, f.Index, f.Err)
}

// PersistentReport summarizes one level's persistent run: the cached
// arm's aggregated stats (hits, seals, invalidations), the nocache
// arm's, and any failures.
type PersistentReport struct {
	Level        mpx.Level
	Workloads    int
	Stats        mpx.Stats // cached arm aggregate
	NoCacheStats mpx.Stats
	Failures     []PersistentFailure
}

// RunPersistent runs n seeded differential persistent workloads per
// semantic level, sharded across workers host goroutines (<= 0 selects
// GOMAXPROCS; determinism argument as RunChaosParallel). A clean run
// has empty Failures everywhere; callers asserting the run was not
// vacuous additionally use CheckPersistentCoverage.
func RunPersistent(seed int64, n int, workers int) []PersistentReport {
	levels := ChaosLevels()
	reports := make([]PersistentReport, len(levels))

	type slot struct {
		cached, plain mpx.Stats
		err           error
	}
	slots := make([]slot, len(levels)*n)
	simt.ParallelFor(len(slots), workers, func(k int) {
		level, i := levels[k/n], k%n
		cached, plain, err := PersistentWorkload(level, seed, i)
		slots[k] = slot{cached: cached, plain: plain, err: err}
	})

	for li, level := range levels {
		rep := PersistentReport{Level: level, Workloads: n}
		for i := 0; i < n; i++ {
			s := &slots[li*n+i]
			rep.Stats.Add(s.cached)
			rep.NoCacheStats.Add(s.plain)
			if s.err != nil {
				rep.Failures = append(rep.Failures, PersistentFailure{
					Level: level, Index: i, Seed: seed, Err: s.err,
				})
			}
		}
		reports[li] = rep
	}
	return reports
}

// CheckPersistentCoverage verifies a report's cached-arm stats show the
// cache actually worked — handles sealed, re-fires served O(1), and
// the forced-invalidation interleavings left a trace — rather than the
// differential equality holding vacuously because nothing ever sealed.
func CheckPersistentCoverage(rep PersistentReport) error {
	st := rep.Stats
	if st.CacheSeals == 0 {
		return fmt.Errorf("%v: no handle ever sealed over %d workloads (stats %+v)", rep.Level, rep.Workloads, st)
	}
	if st.CacheHits == 0 {
		return fmt.Errorf("%v: no cached re-fire over %d workloads (stats %+v)", rep.Level, rep.Workloads, st)
	}
	if st.CacheInvalidations == 0 {
		return fmt.Errorf("%v: injections never invalidated a seal over %d workloads (stats %+v)", rep.Level, rep.Workloads, st)
	}
	if hits, total := float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses); hits/total < 0.2 {
		return fmt.Errorf("%v: cache hit rate %.2f implausibly low (stats %+v)", rep.Level, hits/total, st)
	}
	if rep.NoCacheStats.CacheHits != 0 {
		return fmt.Errorf("%v: nocache arm hit the cache (stats %+v)", rep.Level, rep.NoCacheStats)
	}
	return nil
}
