package conformance

import (
	"flag"
	"testing"
)

var persistSeed = flag.Int64("persist.seed", 1, "seed for the persistent conformance run")

// TestPersistentConformance is the persistent-mode acceptance gate:
// ≥1000 seeded differential workloads (250 per semantic level), each
// run twice — cached and with DisablePersistentCache — with every
// delivered byte equal between the arms, including under the forced
// plain/wildcard-injection invalidations, and the aggregate stats
// proving the cache actually sealed, re-fired, and invalidated.
func TestPersistentConformance(t *testing.T) {
	n := 250
	if testing.Short() {
		n = 30
	}
	for _, rep := range RunPersistent(*persistSeed, n, 0) {
		rep := rep
		t.Run(rep.Level.String(), func(t *testing.T) {
			for i, f := range rep.Failures {
				if i >= 5 {
					t.Errorf("... and %d more failures", len(rep.Failures)-i)
					break
				}
				t.Error(f.String())
			}
			if len(rep.Failures) > 0 {
				return
			}
			if err := CheckPersistentCoverage(rep); err != nil {
				t.Error(err)
			}
			hitRate := float64(rep.Stats.CacheHits) / float64(rep.Stats.CacheHits+rep.Stats.CacheMisses)
			t.Logf("%d workloads: seals %d hits %d misses %d invalidations %d (hit rate %.3f)",
				rep.Workloads, rep.Stats.CacheSeals, rep.Stats.CacheHits,
				rep.Stats.CacheMisses, rep.Stats.CacheInvalidations, hitRate)
		})
	}
}

// TestPersistentWorkloadReplayDeterminism: the replay handle
// reproduces a differential workload bit-for-bit — same stats in both
// arms, same verdict.
func TestPersistentWorkloadReplayDeterminism(t *testing.T) {
	for _, level := range ChaosLevels() {
		for i := 0; i < 5; i++ {
			c1, p1, e1 := PersistentWorkload(level, 77, i)
			c2, p2, e2 := PersistentWorkload(level, 77, i)
			if c1 != c2 || p1 != p2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%v workload %d replay diverged:\ncached %+v vs %+v\nplain %+v vs %+v\nerrs %v vs %v",
					level, i, c1, c2, p1, p2, e1, e2)
			}
		}
	}
}

// TestPersistentParallelMatchesSerial: sharding the run across host
// workers must not change any aggregate — workloads are independent
// and merged in index order.
func TestPersistentParallelMatchesSerial(t *testing.T) {
	serial := RunPersistent(9, 12, 1)
	parallel := RunPersistent(9, 12, 4)
	for i := range serial {
		s, p := serial[i], parallel[i]
		if len(s.Failures) != 0 || len(p.Failures) != 0 {
			t.Fatalf("%v: failures in determinism run: %v / %v", s.Level, s.Failures, p.Failures)
		}
		if s.Stats != p.Stats || s.NoCacheStats != p.NoCacheStats {
			t.Errorf("%v: serial and parallel runs diverged:\n%+v\n%+v", s.Level, s.Stats, p.Stats)
		}
	}
}
