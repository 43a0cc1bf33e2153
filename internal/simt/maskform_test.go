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
		refExec(ref, n, func(lane int) {})
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
		want := refBallot(ref, func(lane int) bool { return votes&LaneMask(lane) != 0 })
		if got := mf.BallotMask(votes); got != want {
			t.Fatalf("trial %d (mask %#x, votes %#x): BallotMask = %#x, Ballot = %#x", trial, mask, votes, got, want)
		}
		if *rc != *mc {
			t.Fatalf("trial %d: BallotMask counters %+v, Ballot %+v", trial, *mc, *rc)
		}
	}
}

// TestLoadSharedUniformMatchesLoadShared pins the broadcast load: for
// any active mask, LoadSharedUniform(m, addr) returns the word every
// active lane of LoadShared with the constant address receives (0 when
// no lane is active), leaves memory untouched and bills the same
// counters.
func TestLoadSharedUniformMatchesLoadShared(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		mask, addr := seededMask(rng, trial), rng.Intn(3*LaneCount)
		refMem, mfMem := NewMemory(3*LaneCount), NewMemory(3*LaneCount)
		for a := 0; a < refMem.Len(); a++ {
			v := rng.Uint64()
			refMem.Store(a, v)
			mfMem.Store(a, v)
		}
		ref, rc := newTestWarp()
		mf, mc := newTestWarp()
		ref.SetActive(mask)
		mf.SetActive(mask)
		var want uint64
		refLoadShared(ref, refMem, func(lane int) int { return addr }, func(lane int, v uint64) { want = v })
		if got := mf.LoadSharedUniform(mfMem, addr); got != want {
			t.Fatalf("trial %d (mask %#x, addr %d): LoadSharedUniform = %#x, LoadShared = %#x", trial, mask, addr, got, want)
		}
		if *rc != *mc {
			t.Fatalf("trial %d (mask %#x): LoadSharedUniform counters %+v, LoadShared %+v", trial, mask, *mc, *rc)
		}
		for a := 0; a < refMem.Len(); a++ {
			if refMem.Load(a) != mfMem.Load(a) {
				t.Fatalf("trial %d: memory[%d] differs after load", trial, a)
			}
		}
	}
}

// TestStoreSharedUniformMatchesStoreShared pins the broadcast store:
// for any active mask, StoreSharedUniform(m, addr, v) leaves memory and
// the counters exactly as StoreShared with a constant address and value
// does, including writing nothing when no lane is active.
func TestStoreSharedUniformMatchesStoreShared(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		mask, addr, v := seededMask(rng, trial), rng.Intn(3*LaneCount), rng.Uint64()
		refMem, mfMem := NewMemory(3*LaneCount), NewMemory(3*LaneCount)
		ref, rc := newTestWarp()
		mf, mc := newTestWarp()
		ref.SetActive(mask)
		mf.SetActive(mask)
		refStoreShared(ref, refMem, func(lane int) int { return addr }, func(lane int) uint64 { return v })
		mf.StoreSharedUniform(mfMem, addr, v)
		if *rc != *mc {
			t.Fatalf("trial %d (mask %#x): StoreSharedUniform counters %+v, StoreShared %+v", trial, mask, *mc, *rc)
		}
		for a := 0; a < refMem.Len(); a++ {
			if refMem.Load(a) != mfMem.Load(a) {
				t.Fatalf("trial %d (mask %#x, addr %d): memory[%d] = %#x, StoreShared left %#x",
					trial, mask, addr, a, mfMem.Load(a), refMem.Load(a))
			}
		}
	}
}

// quadraticBankConflicts is the bank-conflict count as it was first
// written: each address is checked for a duplicate against every
// earlier lane. It is the reference the per-bank version must match.
func quadraticBankConflicts(addrs []int) uint64 {
	var cnt [bankCount]uint8
	worst := uint8(1)
	for i, a := range addrs {
		dup := false
		for _, b := range addrs[:i] {
			if b == a {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		bank := a % bankCount
		cnt[bank]++
		if cnt[bank] > worst {
			worst = cnt[bank]
		}
	}
	return uint64(worst - 1)
}

// TestBankConflictsMatchesQuadratic compares bankConflicts with the
// quadratic reference over seeded address sets of every length a warp
// can present, mixing duplicates, broadcasts, strides and pile-ups of
// distinct addresses in one bank.
func TestBankConflictsMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4000; trial++ {
		n := trial % (LaneCount + 1)
		addrs := make([]int, n)
		switch trial / (LaneCount + 1) % 5 {
		case 0: // random, with duplicates likely in a small range
			for i := range addrs {
				addrs[i] = rng.Intn(96)
			}
		case 1: // broadcast: one address, with a few stragglers
			a := rng.Intn(1024)
			for i := range addrs {
				addrs[i] = a
				if rng.Intn(8) == 0 {
					addrs[i] = rng.Intn(1024)
				}
			}
		case 2: // strided, as a warp's column or row access
			base, stride := rng.Intn(64), 1+rng.Intn(66)
			for i := range addrs {
				addrs[i] = base + i*stride
			}
		case 3: // single-bank pile-up, some addresses repeated
			bank := rng.Intn(bankCount)
			for i := range addrs {
				addrs[i] = bank + bankCount*rng.Intn(12)
			}
		default: // a few banks, each hit by repeats and distinct words
			for i := range addrs {
				addrs[i] = rng.Intn(3) + bankCount*rng.Intn(6)
			}
		}
		rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		if got, want := bankConflicts(addrs), quadraticBankConflicts(addrs); got != want {
			t.Fatalf("trial %d: bankConflicts(%v) = %d, quadratic reference %d", trial, addrs, got, want)
		}
	}
}
