package bench

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// sweepRows holds the sections that run their points through
// simt.ParallelFor at GOMAXPROCS workers, besides the figures.
type sweepRows struct {
	stream  []StreamRow
	sms     []SMRow
	order   []OrderRow
	commpar []CommParRow
}

// atProcs runs f at the given GOMAXPROCS.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// computeSweeps computes every section of sweepRows at the given
// GOMAXPROCS.
func computeSweeps(procs int) (rows sweepRows) {
	atProcs(procs, func() {
		rows = sweepRows{Streaming(), SMSweep(), OrderSensitivity(), CommParallel()}
	})
	return rows
}

// The sweeps are deterministic, so the band tests share one set of
// rows, computed at GOMAXPROCS 4: the setting
// TestSweepsIndependentOfGOMAXPROCS checks against a one-core run.
var (
	sweepOnce sync.Once
	sweeps    sweepRows
)

func sweepsCached() *sweepRows {
	sweepOnce.Do(func() { sweeps = computeSweeps(4) })
	return &sweeps
}

// TestSweepsIndependentOfGOMAXPROCS pins the contract of sweep-level
// host parallelism: every section that runs its points through
// simt.ParallelFor — the sweeps above and the soak section, whose
// seeds run concurrently — returns identical rows on one core and on
// four.
func TestSweepsIndependentOfGOMAXPROCS(t *testing.T) {
	one, four := computeSweeps(1), sweepsCached()
	for _, s := range []struct {
		name      string
		one, four any
	}{
		{"stream", one.stream, four.stream},
		{"smsweep", one.sms, four.sms},
		{"order", one.order, four.order},
		{"commparallel", one.commpar, four.commpar},
	} {
		if !reflect.DeepEqual(s.one, s.four) {
			t.Errorf("%s rows differ between GOMAXPROCS 1 and 4:\n%v\n%v", s.name, s.one, s.four)
		}
	}

	soakAt := func(procs int) (recs []BenchRecord) {
		atProcs(procs, func() {
			res, err := RunSoak(0, 0, false)
			if err != nil {
				t.Fatalf("RunSoak at GOMAXPROCS %d: %v", procs, err)
			}
			recs = SoakRecords(res)
		})
		return recs
	}
	if one, four := soakAt(1), soakAt(4); !reflect.DeepEqual(one, four) {
		t.Errorf("soak records differ between GOMAXPROCS 1 and 4:\n%v\n%v", one, four)
	}
}
