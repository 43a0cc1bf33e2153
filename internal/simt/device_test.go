package simt

import "testing"

// TestWarpReduceScenario exercises a composite kernel: a warp-wide
// max-reduce using shuffles, the classic SIMT idiom, verifying the
// engine supports real warp-synchronous programming.
func TestWarpReduceScenario(t *testing.T) {
	g := NewMemory(64)
	// Seed global memory with values; lane i holds (i*7)%31.
	for i := 0; i < 32; i++ {
		g.Store(i, uint64((i*7)%31))
	}
	w := NewCTA(0, 32, 0).Warp(0)
	var regs [LaneCount]uint64
	w.LoadGlobal(g, func(lane int) int { return lane }, func(lane int, v uint64) { regs[lane] = v })
	for off := LaneCount / 2; off > 0; off /= 2 {
		var incoming [LaneCount]uint64
		w.Shfl(
			func(lane int) uint64 { return regs[lane] },
			func(lane int) int { return (lane + off) % LaneCount },
			func(lane int, v uint64) { incoming[lane] = v })
		w.Exec(1, func(lane int) {
			if incoming[lane] > regs[lane] {
				regs[lane] = incoming[lane]
			}
		})
	}
	if result := regs[0]; result != 30 {
		t.Errorf("warp max-reduce = %d, want 30", result)
	}
}
