package simt

import "testing"

// TestWarpReduceScenario exercises a composite kernel: a warp-wide
// max-reduce through shared memory, the classic tree in which the lower
// half of the active lanes folds in the upper half each step, built from
// the lane-array primitives.
func TestWarpReduceScenario(t *testing.T) {
	g := NewMemory(64)
	// Seed global memory with values; lane i holds (i*7)%31.
	for i := 0; i < 32; i++ {
		g.Store(i, uint64((i*7)%31))
	}
	c := NewCTA(0, 32, LaneCount)
	w := c.Warp(0)
	var regs, upper [LaneCount]uint64
	w.LoadGlobalRange(g, 0, &regs)
	w.StoreSharedRange(c.Shared, 0, &regs)
	for off := LaneCount / 2; off > 0; off /= 2 {
		w.WithMask(FirstLanes(off), func() {
			w.LoadSharedStrided(c.Shared, off, 1, &upper)
			w.Issue(1)
			for lane := 0; lane < off; lane++ {
				regs[lane] = max(regs[lane], upper[lane])
			}
			w.StoreSharedRange(c.Shared, 0, &regs)
		})
	}
	if result := c.Shared.Load(0); result != 30 {
		t.Errorf("warp max-reduce = %d, want 30", result)
	}
	if ctrs := c.Counters(); ctrs.SMemLoad != 5 || ctrs.SMemStore != 6 || ctrs.SMemConflict != 0 {
		t.Errorf("reduce billed %+v, want 5 loads, 6 stores, no conflicts", ctrs)
	}
}
