package timing

import (
	"testing"
	"testing/quick"

	"simtmp/internal/arch"
	"simtmp/internal/simt"
)

func TestKindString(t *testing.T) {
	if Throughput.String() != "throughput" || Dependent.String() != "dependent" {
		t.Error("Kind.String() wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind.String() wrong")
	}
}

func TestDependentCyclesSumLatencies(t *testing.T) {
	m := NewModel(arch.PascalGTX1080())
	c := simt.Counters{ALU: 10, Ballot: 2, SMemLoad: 1}
	got := m.PhaseCycles(&Phase{Kind: Dependent, Ctrs: c})
	want := 10*m.P.ALUDep + 2*m.P.BallotDep + 1*m.P.SMemDep
	if got != want {
		t.Errorf("dependent cycles = %v, want %v", got, want)
	}
}

func TestThroughputIssueLimited(t *testing.T) {
	m := NewModel(arch.PascalGTX1080())
	// Pure ALU work with ample warps: issue width is the limiter.
	c := simt.Counters{ALU: 40000}
	got := m.PhaseCycles(&Phase{Kind: Throughput, Ctrs: c, ResidentWarps: 32})
	want := 40000.0 / float64(m.A.IssueWidth)
	if got != want {
		t.Errorf("issue-limited cycles = %v, want %v", got, want)
	}
}

func TestThroughputMemoryLimited(t *testing.T) {
	m := NewModel(arch.KeplerK80())
	// Few instructions, many transactions: memory throughput limits.
	c := simt.Counters{GMemLoad: 10, GMemTrans: 100000}
	got := m.PhaseCycles(&Phase{Kind: Throughput, Ctrs: c, ResidentWarps: 64})
	if min := 100000 * m.P.TransCycles; got < min {
		t.Errorf("memory-limited cycles = %v, want >= %v", got, min)
	}
}

func TestMoreWarpsHideMoreLatency(t *testing.T) {
	m := NewModel(arch.MaxwellM40())
	c := simt.Counters{GMemLoad: 1000, GMemTrans: 2000, ALU: 1000}
	few := m.PhaseCycles(&Phase{Kind: Throughput, Ctrs: c, ResidentWarps: 2})
	many := m.PhaseCycles(&Phase{Kind: Throughput, Ctrs: c, ResidentWarps: 32})
	if many >= few {
		t.Errorf("32 warps (%v cycles) not faster than 2 warps (%v cycles)", many, few)
	}
}

func TestZeroWarpsClamped(t *testing.T) {
	m := NewModel(arch.PascalGTX1080())
	c := simt.Counters{ALU: 100, GMemLoad: 10, GMemTrans: 10}
	got := m.PhaseCycles(&Phase{Kind: Throughput, Ctrs: c, ResidentWarps: 0})
	if got <= 0 {
		t.Errorf("cycles with 0 warps = %v, want > 0", got)
	}
}

func TestSecondsUsesClock(t *testing.T) {
	m := NewModel(arch.PascalGTX1080())
	if got, want := m.Seconds(1733e6), 1.0; got != want {
		t.Errorf("Seconds(1 clock-second of cycles) = %v, want %v", got, want)
	}
}

func TestDependentChainCostSimilarAcrossGenerations(t *testing.T) {
	// The paper's core observation: the serial reduce costs a similar
	// number of CYCLES on all three generations, so wall-clock scales
	// with clock rate. Assert the cycle costs are within 25% of each
	// other.
	c := simt.Counters{ALU: 5, Ballot: 2, SMemLoad: 2, Branch: 2}
	var costs []float64
	for _, a := range arch.All() {
		m := NewModel(a)
		costs = append(costs, m.PhaseCycles(&Phase{Kind: Dependent, Ctrs: c}))
	}
	for _, x := range costs[1:] {
		ratio := x / costs[0]
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("dependent-chain cycle costs diverge: %v", costs)
		}
	}
}

func TestOverlap(t *testing.T) {
	if Overlap(3, 5) != 5 || Overlap(5, 3) != 5 {
		t.Error("Overlap is not max")
	}
}

func TestRate(t *testing.T) {
	if got := Rate(1000, 1e-3); got != 1e6 {
		t.Errorf("Rate = %v, want 1e6", got)
	}
	if got := Rate(10, 0); got != 0 {
		t.Errorf("Rate with zero time = %v, want 0", got)
	}
}

func TestParamsForCoversGenerations(t *testing.T) {
	gens := []arch.Generation{arch.Kepler, arch.Maxwell, arch.Pascal, arch.HostCPU}
	for _, g := range gens {
		p := ParamsFor(g)
		if p.ALUDep <= 0 || p.TransCycles <= 0 || p.WarpIssueRate <= 0 {
			t.Errorf("ParamsFor(%v) has zero fields: %+v", g, p)
		}
	}
	// Memory throughput must improve monotonically Kepler→Pascal.
	k, m, p := ParamsFor(arch.Kepler), ParamsFor(arch.Maxwell), ParamsFor(arch.Pascal)
	if !(k.TransCycles > m.TransCycles && m.TransCycles > p.TransCycles) {
		t.Errorf("TransCycles not monotonic: %v %v %v", k.TransCycles, m.TransCycles, p.TransCycles)
	}
}

// TestBackoff pins the capped exponential schedule the reliable
// transport uses for retransmission timers.
func TestBackoff(t *testing.T) {
	cases := []struct {
		attempt int
		want    float64
	}{
		{-3, 2}, {0, 2}, {1, 2}, {2, 4}, {3, 8}, {4, 16}, {5, 32}, {6, 32}, {50, 32},
	}
	for _, c := range cases {
		if got := Backoff(2, 32, c.attempt); got != c.want {
			t.Errorf("Backoff(2, 32, %d) = %v, want %v", c.attempt, got, c.want)
		}
	}
	if got := Backoff(10, 5, 1); got != 5 {
		t.Errorf("Backoff with base above cap = %v, want 5", got)
	}
}

// TestBackoffProperties is the property-based companion to the table
// test above, over randomized (base, max, attempt): the schedule must
// be deterministic, never exceed the cap, never undercut min(base,max),
// grow monotonically with the attempt number, and double exactly until
// the cap bites.
func TestBackoffProperties(t *testing.T) {
	f := func(rawBase, rawMax uint16, rawAttempt uint8) bool {
		base := float64(rawBase)/64 + 1e-6 // positive, spans (0, ~1024]
		max := float64(rawMax)/16 + 1e-6   // positive, spans (0, ~4096]
		attempt := int(rawAttempt) % 64

		d := Backoff(base, max, attempt)
		if d != Backoff(base, max, attempt) { // deterministic
			return false
		}
		if d > max { // cap respected
			return false
		}
		floor := base
		if max < floor {
			floor = max
		}
		if d < floor { // never below min(base, cap)
			return false
		}
		if next := Backoff(base, max, attempt+1); next < d { // monotone growth
			return false
		}
		// Exact doubling below the cap: attempts 1..k give base·2^(i−1)
		// until that value reaches max.
		want := base
		for i := 1; i <= attempt; i++ {
			if want >= max {
				want = max
				break
			}
			if i > 1 {
				want *= 2
			}
		}
		if want > max {
			want = max
		}
		if attempt >= 1 && d != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
