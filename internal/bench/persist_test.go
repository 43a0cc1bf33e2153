package bench

import "testing"

// TestPersistHaloAcceptance pins the headline claims of the persistent
// profile: steady-state cached re-fire at least 5× faster than running
// the hash engine every iteration (cycle model), ≥99% cache hit rate
// after the first iteration, and a zero-allocation re-fire path.
func TestPersistHaloAcceptance(t *testing.T) {
	r, err := PersistHalo(1024, persistIters, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 5 {
		t.Errorf("re-fire speedup %.2fx below the 5x contract (refire %.3fus)", r.Speedup, r.RefireUs)
	}
	if r.HitRate < 0.99 {
		t.Errorf("steady-state hit rate %.4f below 0.99", r.HitRate)
	}
	if r.AllocsPerOp != 0 {
		t.Errorf("re-fire iteration allocates: %.1f allocs/op", r.AllocsPerOp)
	}
	if r.FirstIterUs <= r.RefireUs {
		t.Errorf("first iteration (%.3fus) not slower than re-fire (%.3fus): engine cost unmetered?",
			r.FirstIterUs, r.RefireUs)
	}
	if r.Invalidations != 0 {
		t.Errorf("clean halo run invalidated %d seals", r.Invalidations)
	}
}

func TestPersistCollective(t *testing.T) {
	r, err := PersistCollective(persistIters, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.HitRate < 0.9 {
		t.Errorf("collective hit rate %.4f below 0.9", r.HitRate)
	}
	if r.Speedup <= 1 {
		t.Errorf("persistent allreduce not faster than BSP allreduce: %.2fx", r.Speedup)
	}
}

func TestPersistChurn(t *testing.T) {
	r, err := PersistChurn(persistIters, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Invalidations == 0 {
		t.Error("churn profile forced no invalidations (vacuous)")
	}
	if r.HitRate <= 0 || r.HitRate >= 1 {
		t.Errorf("churn hit rate %.4f outside (0,1): injections not costing anything?", r.HitRate)
	}
	// Nocache churn must be a clean bypass even under injections.
	nr, err := PersistChurn(persistIters, true)
	if err != nil {
		t.Fatal(err)
	}
	if nr.HitRate != 0 {
		t.Errorf("nocache churn hit rate %.4f, want 0", nr.HitRate)
	}
}

// TestPersistNoCacheTripsGate: the gate-validation hook. A run with
// the cache disabled must regress against a cached baseline — this is
// what CI's nocache step asserts end to end.
func TestPersistNoCacheTripsGate(t *testing.T) {
	cached, err := RunPersistProfiles(false)
	if err != nil {
		t.Fatal(err)
	}
	nocache, err := RunPersistProfiles(true)
	if err != nil {
		t.Fatal(err)
	}
	base := BenchReport{Records: PersistRecords(cached)}
	cur := BenchReport{Records: PersistRecords(nocache)}
	regs := Compare(base, cur)
	if len(regs) == 0 {
		t.Fatal("disabling the cache did not trip the regression gate")
	}
	tripped := map[string]bool{}
	for _, r := range regs {
		tripped[r.Name] = true
	}
	for _, want := range []string{"persist/halo/hit_rate", "persist/halo/refire_speedup"} {
		if !tripped[want] {
			t.Errorf("nocache run did not trip %s (tripped: %v)", want, regs)
		}
	}
}

func TestPersistSweep(t *testing.T) {
	rows, err := PersistSweep(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("sweep rows = %d, want 6", len(rows))
	}
	for i, p := range rows {
		if p.Speedup < 5 {
			t.Errorf("iters %d: speedup %.2fx below 5x", p.Iters, p.Speedup)
		}
		if p.AmortizedUs <= p.RefireUs {
			t.Errorf("iters %d: amortized %.4fus not above refire %.4fus", p.Iters, p.AmortizedUs, p.RefireUs)
		}
		if i > 0 && p.AmortizedUs >= rows[i-1].AmortizedUs {
			t.Errorf("amortized cost not falling with iteration count: %+v", rows)
		}
	}
}
