package simt

import (
	"math/rand"
	"testing"
)

// seededMask draws an active mask, covering the empty and full masks
// and sparse, dense and random ones in between.
func seededMask(rng *rand.Rand, trial int) uint32 {
	switch trial % 5 {
	case 0:
		return 0
	case 1:
		return FullMask
	case 2:
		return rng.Uint32() & rng.Uint32()
	case 3:
		return rng.Uint32() | rng.Uint32()
	default:
		return rng.Uint32()
	}
}

// TestIssueMatchesExec pins the mask-form ALU primitive: Issue(n)
// leaves the counters exactly as Exec(n, noop) does, whatever lanes
// are active.
func TestIssueMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		mask, n := seededMask(rng, trial), rng.Intn(6)
		ref, rc := newTestWarp()
		mf, mc := newTestWarp()
		ref.SetActive(mask)
		mf.SetActive(mask)
		ref.Exec(n, func(lane int) {})
		mf.Issue(n)
		if *rc != *mc {
			t.Fatalf("trial %d (mask %#x, n %d): Issue counters %+v, Exec %+v", trial, mask, n, *mc, *rc)
		}
		if mf.Active() != mask {
			t.Fatalf("trial %d: Issue changed the active mask to %#x", trial, mf.Active())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Issue(-1) did not panic")
		}
	}()
	w, _ := newTestWarp()
	w.Issue(-1)
}

// TestBallotMaskMatchesBallot pins the mask-form ballot: for any active
// mask and vote vector, BallotMask(votes) returns the value and bills
// the counters of Ballot over the predicate "lane's vote bit is set".
func TestBallotMaskMatchesBallot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		mask, votes := seededMask(rng, trial), rng.Uint32()
		ref, rc := newTestWarp()
		mf, mc := newTestWarp()
		ref.SetActive(mask)
		mf.SetActive(mask)
		want := ref.Ballot(func(lane int) bool { return votes&LaneMask(lane) != 0 })
		if got := mf.BallotMask(votes); got != want {
			t.Fatalf("trial %d (mask %#x, votes %#x): BallotMask = %#x, Ballot = %#x", trial, mask, votes, got, want)
		}
		if *rc != *mc {
			t.Fatalf("trial %d: BallotMask counters %+v, Ballot %+v", trial, *mc, *rc)
		}
	}
}
