// Package timing converts SIMT instruction counters into simulated
// execution time per GPU architecture. It models the two regimes the
// paper's kernels live in:
//
//   - Throughput phases (the scan, the hash probes): many resident
//     warps; time is the maximum of the issue-limited and the
//     memory-throughput-limited cycle counts, plus the residual memory
//     latency that the available warps cannot hide.
//   - Dependent phases (the reduce): a single warp walking a serial
//     dependency chain; time is the sum of per-instruction dependency
//     latencies, which barely improved across Kepler→Pascal — this is
//     why the paper finds the generations differ "only due to higher
//     clock frequencies".
//
// The per-architecture constants live in params.go; the calibration
// tests in internal/bench pin the resulting rates to the paper's bands.
package timing

import (
	"fmt"

	"simtmp/internal/arch"
	"simtmp/internal/simt"
)

// Kind selects the execution regime of a phase.
type Kind int

const (
	// Throughput marks a phase executed by many warps concurrently.
	Throughput Kind = iota
	// Dependent marks a phase whose instructions form a serial
	// dependency chain (critical-path bound, e.g. the reduce).
	Dependent
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Throughput:
		return "throughput"
	case Dependent:
		return "dependent"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Phase is one accounted stretch of kernel execution.
type Phase struct {
	Kind Kind
	Ctrs simt.Counters
	// ResidentWarps is the number of warps able to issue during the
	// phase (hides memory latency in throughput phases).
	ResidentWarps int
	// WorkingSetWords, when positive, is the size of the data the
	// phase's global-memory traffic touches. Traffic over a working
	// set resident in the L2 cache is billed at the L2 transaction
	// cost instead of the DRAM cost; zero means unknown (DRAM).
	WorkingSetWords int
}

// Model computes cycles and seconds for an architecture.
type Model struct {
	A *arch.Arch
	P Params
}

// NewModel returns the timing model for a, with the architecture's
// calibrated parameters.
func NewModel(a *arch.Arch) Model {
	return Model{A: a, P: ParamsFor(a.Generation)}
}

// PhaseCycles returns the simulated cycle cost of one phase. The
// model, the phase and its counters are passed by pointer: the engines
// call this once per simulated phase, and copying the three structs
// cost more than the arithmetic.
func (m *Model) PhaseCycles(p *Phase) float64 {
	switch p.Kind {
	case Dependent:
		return m.dependentCycles(&p.Ctrs)
	default:
		return m.throughputCycles(&p.Ctrs, p.ResidentWarps, p.WorkingSetWords)
	}
}

// dependentCycles sums per-instruction dependency latencies: the cost
// of a single warp executing a serial chain with no other warps to
// cover the stalls.
func (m *Model) dependentCycles(c *simt.Counters) float64 {
	p := &m.P
	return float64(c.ALU)*p.ALUDep +
		float64(c.Ballot)*p.BallotDep +
		float64(c.Shfl)*p.ShflDep +
		float64(c.SMemLoad+c.SMemStore)*p.SMemDep +
		float64(c.SMemConflict)*p.BankConflict +
		float64(c.GMemLoad+c.GMemStore)*p.GMemDep +
		float64(c.Atomic)*p.AtomicDep +
		float64(c.Sync)*p.SyncCost +
		float64(c.Branch)*p.BranchDep
}

// throughputCycles models a many-warp phase: issue-limited cycles
// overlap with memory transactions; the exposed fraction of memory
// latency shrinks with the number of resident warps.
func (m *Model) throughputCycles(c *simt.Counters, residentWarps, workingSet int) float64 {
	w := float64(residentWarps)
	if w < 1 {
		w = 1
	}
	p := &m.P

	ipc := w * p.WarpIssueRate
	if max := float64(m.A.IssueWidth); ipc > max {
		ipc = max
	}
	issue := float64(c.Instructions()) / ipc

	transCost := p.TransCycles
	if workingSet > 0 && workingSet <= p.L2Words {
		transCost = p.L2TransCycles
	}
	mem := float64(c.GMemTrans)*transCost + float64(c.Atomic)*p.AtomicThroughput

	// Latency exposure: each memory instruction stalls its warp for the
	// full latency; with w warps in flight the SM keeps issuing as long
	// as others are ready, leaving roughly latency/(w·hide) exposed.
	hidden := w * p.HideEfficiency
	if hidden < 1 {
		hidden = 1
	}
	exposed := float64(c.MemoryInstructions())*p.GMemDep/hidden +
		float64(c.SMemLoad+c.SMemStore)*p.SMemDep/hidden
	exposed += float64(c.SMemConflict) * p.BankConflict

	cycles := issue
	if mem > cycles {
		cycles = mem
	}
	return cycles + exposed + float64(c.Sync)*p.SyncCost
}

// Seconds converts simulated cycles to simulated seconds on the
// model's architecture.
func (m *Model) Seconds(cycles float64) float64 {
	return cycles / m.A.ClockHz()
}

// PersistentDeliverCycles is the simulated cost of one cached
// persistent-channel delivery (DESIGN.md §15): the sealed handle-table
// entry load and the delivery-slot store, both L2-resident by
// construction (the table is tiny and hot), plus a couple of ALU
// cycles of bookkeeping. No matching phase runs at all — this is the
// entire per-message cost, which is why cached re-fire rates sit far
// above even the hash engine's.
func (m *Model) PersistentDeliverCycles() float64 {
	return 2*m.P.L2TransCycles + 2
}

// Overlap returns the pipelined duration of two concurrent phases: the
// longer one fully hides the shorter (paper §V-A: scan and reduce are
// overlapped when enough warps remain).
func Overlap(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Backoff returns the capped exponential retransmission delay for the
// given 1-based attempt: base doubles per attempt (base, 2·base,
// 4·base, …) and is clamped to max. Units are whatever base is in —
// the runtime passes simulated seconds. Attempts below 1 are treated
// as 1.
func Backoff(base, max float64, attempt int) float64 {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// Rate converts a number of completed operations and simulated seconds
// into an operations-per-second rate.
func Rate(ops int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(ops) / seconds
}
