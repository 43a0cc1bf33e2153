// Persistent-channel benchmarks: how much does the sealed match-handle
// cache (DESIGN.md §15) buy over running the matching engine every
// iteration? Two tracked profiles: persist/halo (the LULESH-style 3D
// halo proxy on the hash engine — the paper's fixed-pattern sweet
// spot) and persist/churn (halo traffic with periodic wildcard
// injections forcing seal invalidation and recovery). All headline
// metrics are simulated (cycle-model) and deterministic; the
// zero-allocation contract of the steady-state re-fire is measured on
// the halo profile and asserted by its acceptance test.
package bench

import (
	"fmt"
	"io"
	"testing"

	"simtmp/internal/envelope"
	"simtmp/internal/mpx"
)

// PersistResult is one persistent profile outcome.
type PersistResult struct {
	Profile       string
	FirstIterUs   float64 // iteration 1: full engine + seal
	RefireUs      float64 // steady-state simulated µs/iteration
	RefireRateM   float64 // steady-state M deliveries/s (simulated)
	Speedup       float64 // engine-every-iteration time / re-fire time
	HitRate       float64 // steady-state cache hit rate
	Invalidations int     // seals broken by plain-post injections
	AllocsPerOp   float64 // host allocs per re-fire iteration (-1 = not measured)
}

// persistIters is the tracked iteration count per profile: iteration 1
// is the metered first (engine) iteration, the rest are steady state.
const persistIters = 33

// haloFaces is the 3D face count of the halo proxy.
const haloFaces = 6

// haloPeers returns the six face neighbours of rank r in a 2×2×2
// periodic grid (the examples/halo topology).
func haloPeers(r int) [haloFaces]int {
	nx, ny, nz := 2, 2, 2
	x, y, z := r%nx, (r/nx)%ny, r/(nx*ny)
	rank := func(x, y, z int) int {
		return ((z+nz)%nz*ny+(y+ny)%ny)*nx + (x+nx)%nx
	}
	return [haloFaces]int{
		rank(x+1, y, z), rank(x-1, y, z),
		rank(x, y+1, z), rank(x, y-1, z),
		rank(x, y, z+1), rank(x, y, z-1),
	}
}

// haloChannels builds the persistent channel set of the halo proxy:
// every rank sends one face payload per direction and receives the
// opposite direction from the same peer. Tuples are unique, so the
// pattern runs on the hash engine (Unordered) and every channel seals.
func haloChannels(rt *mpx.Runtime, gpus, payload int) ([]*mpx.PersistentSend, []*mpx.PersistentRecv, error) {
	var sends []*mpx.PersistentSend
	var recvs []*mpx.PersistentRecv
	for r := 0; r < gpus; r++ {
		for d, peer := range haloPeers(r) {
			buf := make([]byte, payload)
			for i := range buf {
				buf[i] = byte(r + d + i)
			}
			s, err := rt.SendInit(r, peer, envelope.Tag(d), 0, buf)
			if err != nil {
				return nil, nil, err
			}
			sends = append(sends, s)
			h, err := rt.RecvInit(r, envelope.Rank(peer), envelope.Tag(d^1), 0)
			if err != nil {
				return nil, nil, err
			}
			recvs = append(recvs, h)
		}
	}
	return sends, recvs, nil
}

// haloIter runs one halo exchange iteration over prebuilt channels.
func haloIter(rt *mpx.Runtime, sends []*mpx.PersistentSend, recvs []*mpx.PersistentRecv) error {
	for _, h := range recvs {
		if err := h.Start(); err != nil {
			return err
		}
	}
	for _, s := range sends {
		if err := s.Start(); err != nil {
			return err
		}
	}
	ok, err := rt.Drain(256)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("halo iteration did not drain")
	}
	return nil
}

// plainHaloIter runs the same exchange through non-persistent posts —
// the engine-every-iteration reference the speedup is measured
// against.
func plainHaloIter(rt *mpx.Runtime, gpus int, payload []byte) error {
	for r := 0; r < gpus; r++ {
		for d, peer := range haloPeers(r) {
			if _, err := rt.PostRecv(r, envelope.Rank(peer), envelope.Tag(d^1), 0); err != nil {
				return err
			}
		}
	}
	for r := 0; r < gpus; r++ {
		for d, peer := range haloPeers(r) {
			if err := rt.Send(r, peer, envelope.Tag(d), 0, payload); err != nil {
				return err
			}
		}
	}
	ok, err := rt.Drain(256)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("plain halo iteration did not drain")
	}
	return nil
}

// PersistHalo runs the halo profile at one payload size: a persistent
// run (first iteration metered separately, then steady state) against
// a plain-post run on the same hash-engine runtime configuration.
// nocache disables the seal cache on the persistent arm — the
// gate-validation hook: hit rate and speedup must collapse.
func PersistHalo(payload, iters int, nocache bool) (PersistResult, error) {
	const gpus = 8
	res := PersistResult{Profile: "halo", AllocsPerOp: -1}

	rt := mpx.New(mpx.Config{Level: mpx.Unordered, GPUs: gpus, DisablePersistentCache: nocache})
	sends, recvs, err := haloChannels(rt, gpus, payload)
	if err != nil {
		return res, err
	}
	if err := haloIter(rt, sends, recvs); err != nil {
		return res, err
	}
	res.FirstIterUs = rt.Stats().SimSeconds * 1e6
	rt.ResetStats()
	for k := 1; k < iters; k++ {
		if err := haloIter(rt, sends, recvs); err != nil {
			return res, err
		}
	}
	st := rt.Stats()
	steady := float64(iters - 1)
	res.RefireUs = st.SimSeconds / steady * 1e6
	if st.SimSeconds > 0 {
		res.RefireRateM = float64(st.Matches) / st.SimSeconds / 1e6
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		res.HitRate = float64(st.CacheHits) / float64(total)
	}
	res.Invalidations = st.CacheInvalidations

	// Engine-every-iteration reference: same runtime config, plain
	// posts, one warm-up iteration then the same steady-state window.
	prt := mpx.New(mpx.Config{Level: mpx.Unordered, GPUs: gpus})
	pbuf := make([]byte, payload)
	if err := plainHaloIter(prt, gpus, pbuf); err != nil {
		return res, err
	}
	prt.ResetStats()
	for k := 1; k < iters; k++ {
		if err := plainHaloIter(prt, gpus, pbuf); err != nil {
			return res, err
		}
	}
	plainUs := prt.Stats().SimSeconds / steady * 1e6
	if res.RefireUs > 0 {
		res.Speedup = plainUs / res.RefireUs
	}

	// Zero-allocation contract of the re-fire path, measured on a warm
	// runtime (pools populated, scratch at capacity).
	res.AllocsPerOp = testing.AllocsPerRun(20, func() {
		if err := haloIter(rt, sends, recvs); err != nil {
			panic(err)
		}
	})
	return res, nil
}

// PersistChurn runs halo traffic with a plain wildcard receive plus
// matching send injected every churnPeriod iterations — each injection
// unseals the targeted channel's (comm, tag) shadow, so the profile
// measures invalidation cost and re-seal recovery, not the clean
// steady state. FullMPI level: wildcards must be legal.
func PersistChurn(iters int, nocache bool) (PersistResult, error) {
	const (
		gpus        = 8
		payload     = 256
		churnPeriod = 4
	)
	res := PersistResult{Profile: "churn", AllocsPerOp: -1}

	rt := mpx.New(mpx.Config{Level: mpx.FullMPI, GPUs: gpus, DisablePersistentCache: nocache})
	sends, recvs, err := haloChannels(rt, gpus, payload)
	if err != nil {
		return res, err
	}
	if err := haloIter(rt, sends, recvs); err != nil {
		return res, err
	}
	res.FirstIterUs = rt.Stats().SimSeconds * 1e6
	rt.ResetStats()
	inj := []byte{0xC7}
	for k := 1; k < iters; k++ {
		if k%churnPeriod == 0 {
			// A wildcard post on rank 0's +x face shadow: unseals every
			// channel delivering tag 1 to rank 0's +x peer... the recv
			// targets rank 0 itself on tag 1 (the face it receives).
			if _, err := rt.PostRecv(0, envelope.AnySource, 1, 0); err != nil {
				return res, err
			}
			if err := rt.Send(haloPeers(0)[0], 0, 1, 0, inj); err != nil {
				return res, err
			}
		}
		if err := haloIter(rt, sends, recvs); err != nil {
			return res, err
		}
	}
	st := rt.Stats()
	steady := float64(iters - 1)
	res.RefireUs = st.SimSeconds / steady * 1e6
	if st.SimSeconds > 0 {
		res.RefireRateM = float64(st.Matches) / st.SimSeconds / 1e6
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		res.HitRate = float64(st.CacheHits) / float64(total)
	}
	res.Invalidations = st.CacheInvalidations
	if !nocache && res.Invalidations == 0 {
		return res, fmt.Errorf("bench: churn profile never invalidated a seal (vacuous run)")
	}
	return res, nil
}

// RunPersistProfiles executes the two tracked persistent profiles.
// nocache is the gate-validation hook mirroring -soak.uncap: it
// disables the seal cache, which must make a blessed baseline fail.
func RunPersistProfiles(nocache bool) ([]PersistResult, error) {
	halo, err := PersistHalo(1024, persistIters, nocache)
	if err != nil {
		return nil, fmt.Errorf("bench: persist/halo: %w", err)
	}
	churn, err := PersistChurn(persistIters, nocache)
	if err != nil {
		return nil, fmt.Errorf("bench: persist/churn: %w", err)
	}
	return []PersistResult{halo, churn}, nil
}

// PersistRecords converts profile outcomes into tracked regression
// records, all simulated and deterministic.
func PersistRecords(results []PersistResult) []BenchRecord {
	var recs []BenchRecord
	for _, r := range results {
		name := "persist/" + r.Profile
		recs = append(recs,
			BenchRecord{Name: name + "/refire_speedup", Value: r.Speedup, Unit: "x", HigherIsBetter: true},
			BenchRecord{Name: name + "/hit_rate", Value: r.HitRate, Unit: "ratio", HigherIsBetter: true},
			BenchRecord{Name: name + "/refire_us", Value: r.RefireUs, Unit: "us/iter"},
		)
	}
	return recs
}

// PersistSweepPoint is one row of the -persistent iteration sweep.
// AmortizedUs folds the first (full-engine + seal) iteration into the
// average, so the column shows where persistent channels break even:
// at low iteration counts the seal cost dominates, at high counts the
// row converges to the pure re-fire cost.
type PersistSweepPoint struct {
	Iters       int
	FirstIterUs float64
	RefireUs    float64
	AmortizedUs float64
	RefireRateM float64
	HitRate     float64
	Speedup     float64
}

// PersistSweep runs the halo profile across iteration counts — the
// cmd/matchbench -persistent table: first-iteration (match + seal)
// cost, steady-state re-fire rate and cache hit rate per count, plus
// the amortized per-iteration cost showing the break-even.
func PersistSweep(nocache bool) ([]PersistSweepPoint, error) {
	var out []PersistSweepPoint
	for _, iters := range []int{2, 4, 8, 16, 32, 64} {
		r, err := PersistHalo(1024, iters, nocache)
		if err != nil {
			return nil, fmt.Errorf("bench: persist sweep iters %d: %w", iters, err)
		}
		out = append(out, PersistSweepPoint{
			Iters:       iters,
			FirstIterUs: r.FirstIterUs,
			RefireUs:    r.RefireUs,
			AmortizedUs: (r.FirstIterUs + float64(iters-1)*r.RefireUs) / float64(iters),
			RefireRateM: r.RefireRateM,
			HitRate:     r.HitRate,
			Speedup:     r.Speedup,
		})
	}
	return out, nil
}

// PrintPersistSweep renders the sweep as the -persistent table.
func PrintPersistSweep(w io.Writer, rows []PersistSweepPoint) {
	fmt.Fprintln(w, "persistent halo proxy (8 GPUs, 6 faces, hash engine): match once, re-fire O(1)")
	fmt.Fprintf(w, "%6s  %13s  %10s  %12s  %14s  %8s  %8s\n",
		"iters", "first_iter_us", "refire_us", "amortized_us", "refire_Mmsg/s", "hit_rate", "speedup")
	for _, p := range rows {
		fmt.Fprintf(w, "%6d  %13.3f  %10.4f  %12.4f  %14.1f  %8.3f  %7.1fx\n",
			p.Iters, p.FirstIterUs, p.RefireUs, p.AmortizedUs, p.RefireRateM, p.HitRate, p.Speedup)
	}
}
