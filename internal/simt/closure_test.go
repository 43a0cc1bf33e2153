package simt

import "math/bits"

// The closure forms of the warp primitives, as kernels first called
// them: a callback supplies each active lane's address and value or
// receives its result, and the bill counts the collected addresses with
// the map-based refTransactions and the generic bankConflicts models.
// Kernels use the lane-array forms; these are the reference the
// property tests compare them against.

// forEachActive invokes f for each active lane in ascending lane order.
func forEachActive(w *Warp, f func(lane int)) {
	for m := w.active; m != 0; m &= m - 1 {
		f(bits.TrailingZeros32(m))
	}
}

// refExec issues n ALU instructions and applies f once per active lane.
func refExec(w *Warp, n int, f func(lane int)) {
	w.Issue(n)
	forEachActive(w, f)
}

// refBallot evaluates pred on every active lane and returns the votes.
func refBallot(w *Warp, pred func(lane int) bool) uint32 {
	w.ctrs.Ballot++
	var v uint32
	forEachActive(w, func(lane int) {
		if pred(lane) {
			v |= LaneMask(lane)
		}
	})
	return v
}

// activeAddrs collects addr(lane) for the active lanes, in lane order,
// calling each lane's callback exactly once before f.
func activeAddrs(w *Warp, addr func(lane int) int, f func(lane, a int)) []int {
	var addrs []int
	forEachActive(w, func(lane int) {
		a := addr(lane)
		addrs = append(addrs, a)
		f(lane, a)
	})
	return addrs
}

func refLoadGlobal(w *Warp, m *Memory, addr func(lane int) int, sink func(lane int, v uint64)) {
	w.ctrs.GMemLoad++
	w.ctrs.GMemTrans += refTransactions(activeAddrs(w, addr, func(lane, a int) { sink(lane, m.Load(a)) }))
}

// refStoreGlobal resolves lanes storing to one address in ascending
// lane order: the highest lane's value is left.
func refStoreGlobal(w *Warp, m *Memory, addr func(lane int) int, val func(lane int) uint64) {
	w.ctrs.GMemStore++
	w.ctrs.GMemTrans += refTransactions(activeAddrs(w, addr, func(lane, a int) { m.Store(a, val(lane)) }))
}

func refAtomicCAS(w *Warp, m *Memory, addr func(lane int) int, old, new func(lane int) uint64, sink func(lane int, prev uint64, swapped bool)) {
	w.ctrs.Atomic++
	w.ctrs.GMemTrans += refTransactions(activeAddrs(w, addr, func(lane, a int) {
		prev, ok := m.CAS(a, old(lane), new(lane))
		sink(lane, prev, ok)
	}))
}

func refLoadShared(w *Warp, m *Memory, addr func(lane int) int, sink func(lane int, v uint64)) {
	w.ctrs.SMemLoad++
	w.ctrs.SMemConflict += bankConflicts(activeAddrs(w, addr, func(lane, a int) { sink(lane, m.Load(a)) }))
}

func refStoreShared(w *Warp, m *Memory, addr func(lane int) int, val func(lane int) uint64) {
	w.ctrs.SMemStore++
	w.ctrs.SMemConflict += bankConflicts(activeAddrs(w, addr, func(lane, a int) { m.Store(a, val(lane)) }))
}
