// Package simt is a warp-accurate simulator of the SIMT execution
// model the paper's matching algorithms are written against: 32-lane
// warps executing in lock step with active masks, warp-level intrinsics
// (ballot, ffs/clz/popc), coalesced and bank-modeled lane-array memory
// accesses, warp-wide compare-and-swap, CTAs of up to 32 warps with shared
// memory and barriers, and devices with word-addressed global memory.
//
// Kernels are expressed in warp-synchronous style: per-lane values live
// in lane arrays that kernel code computes over inline, and every warp
// primitive bills the warp-instruction counters that the timing model
// (internal/timing) converts into per-architecture cycles.
// Functional execution is sequential and deterministic; concurrency is
// modeled analytically from the counters, never from goroutine
// scheduling, so results are exactly reproducible.
package simt

// Counters accumulates issued warp instructions by class. One unit is
// one instruction issued for one warp (covering all its active lanes).
type Counters struct {
	ALU          uint64 // arithmetic/logic, incl. ffs/clz/popc lane ops
	Ballot       uint64 // warp vote instructions (ballot/any/all)
	Shfl         uint64 // warp shuffle instructions (timing prices them; no kernel issues one)
	SMemLoad     uint64 // shared memory load instructions
	SMemStore    uint64 // shared memory store instructions
	SMemConflict uint64 // extra serialized cycles from bank conflicts
	GMemLoad     uint64 // global memory load instructions
	GMemStore    uint64 // global memory store instructions
	GMemTrans    uint64 // global memory transactions (128B segments touched)
	Atomic       uint64 // global atomic instructions
	Sync         uint64 // barrier waits (per warp)
	Branch       uint64 // divergence re-convergence overhead
}

// Add accumulates o into c. o is passed by pointer: counters are
// summed once per warp and phase on the engines' hot paths.
func (c *Counters) Add(o *Counters) {
	c.ALU += o.ALU
	c.Ballot += o.Ballot
	c.Shfl += o.Shfl
	c.SMemLoad += o.SMemLoad
	c.SMemStore += o.SMemStore
	c.SMemConflict += o.SMemConflict
	c.GMemLoad += o.GMemLoad
	c.GMemStore += o.GMemStore
	c.GMemTrans += o.GMemTrans
	c.Atomic += o.Atomic
	c.Sync += o.Sync
	c.Branch += o.Branch
}

// Instructions returns the total number of issued warp instructions
// (transactions are a memory-system metric, not an issue slot).
func (c *Counters) Instructions() uint64 {
	return c.ALU + c.Ballot + c.Shfl + c.SMemLoad + c.SMemStore +
		c.GMemLoad + c.GMemStore + c.Atomic + c.Sync + c.Branch
}

// MemoryInstructions returns the number of instructions that reference
// global memory (loads, stores and atomics).
func (c *Counters) MemoryInstructions() uint64 {
	return c.GMemLoad + c.GMemStore + c.Atomic
}
