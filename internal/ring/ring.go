// Package ring implements the wrap-around message ring the GAS
// transport uses: a fixed-capacity single-producer single-consumer
// queue in device memory with head/tail indices and credit-based flow
// control, the structure a sender-managed remote queue needs so a
// remote writer never overruns the receiver (§II-C: "'Send' operations
// write messages to queues in remote memory").
//
// The matching engines consume the dense envelope batches the runtime
// (internal/mpx) hands them; the ring is the transport stage in front
// of them.
package ring

import (
	"errors"
	"fmt"

	"simtmp/internal/simt"
)

// ErrNoCredits is the back-pressure sentinel: the sender's credit
// balance is exhausted. It is flow control, not data loss — callers
// retry after the consumer returns credits.
var ErrNoCredits = errors.New("ring: no credits")

// Ring is a SPSC ring over simulated device memory. Slot 0..cap-1 hold
// payload words; head/tail live in two extra control words, as they
// would in a device-visible control block. No kernel accesses the ring,
// so it works on its region directly (Memory.Slice) instead of paying
// a checked Memory access per word.
type Ring struct {
	words []uint64 // the region: cap slots, then the control words
	cap   int

	// credits is the sender-side view of free slots (returned lazily
	// by the consumer in batches, as real credit schemes do).
	credits int
	// pendingCredits are consumed slots not yet returned to the sender.
	pendingCredits int

	// Cumulative credit-accounting totals (see CreditStats).
	consumed int // Push calls that spent a credit
	returned int // credits flushed back by ReturnCredits
}

// CreditStats is the typed view of a ring's credit accounting: the
// live balances plus the cumulative totals the conservation property
// is stated over. At all times
//
//	Available + PendingReturn + Occupied == Capacity
//	Consumed == Returned + PendingReturn + Occupied
//
// — credits are conserved: none are minted, none are lost, across any
// grant/consume/return sequence including index wraparound.
type CreditStats struct {
	Capacity      int // total credits granted at creation
	Available     int // sender-side balance (Credits())
	PendingReturn int // consumed slots not yet returned to the sender
	Occupied      int // slots holding undelivered words (Len())
	Consumed      int // cumulative credits spent by Push
	Returned      int // cumulative credits flushed by ReturnCredits
}

// Conserved reports whether the two conservation identities hold.
func (s CreditStats) Conserved() bool {
	return s.Available+s.PendingReturn+s.Occupied == s.Capacity &&
		s.Consumed == s.Returned+s.PendingReturn+s.Occupied
}

// CreditStats returns the ring's credit-accounting snapshot.
func (r *Ring) CreditStats() CreditStats {
	return CreditStats{
		Capacity:      r.cap,
		Available:     r.credits,
		PendingReturn: r.pendingCredits,
		Occupied:      r.Len(),
		Consumed:      r.consumed,
		Returned:      r.returned,
	}
}

// control word offsets relative to base+cap.
const (
	headOff = 0 // next slot to pop
	tailOff = 1 // next slot to push
)

// Words returns the memory footprint of a ring with the given
// capacity (slots plus the two control words).
func Words(capacity int) int { return capacity + 2 }

// New creates a ring over mem[base, base+Words(capacity)).
func New(mem *simt.Memory, base, capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring: capacity %d", capacity))
	}
	if base < 0 || base+Words(capacity) > mem.Len() {
		panic(fmt.Sprintf("ring: region [%d,%d) outside memory of %d words",
			base, base+Words(capacity), mem.Len()))
	}
	r := &Ring{words: mem.Slice(base, Words(capacity)), cap: capacity, credits: capacity}
	r.words[capacity+headOff] = 0
	r.words[capacity+tailOff] = 0
	return r
}

// Cap returns the slot capacity.
func (r *Ring) Cap() int { return r.cap }

// Len returns the number of occupied slots.
func (r *Ring) Len() int {
	head := int(r.words[r.cap+headOff])
	tail := int(r.words[r.cap+tailOff])
	return (tail - head + 2*r.cap) % (2 * r.cap)
}

// Credits returns the sender's current credit balance.
func (r *Ring) Credits() int { return r.credits }

// Push appends a word, consuming one credit. It fails with
// ErrNoCredits when the sender's balance is exhausted — back-pressure,
// not data loss.
func (r *Ring) Push(w uint64) error {
	if r.credits == 0 {
		return fmt.Errorf("%w (capacity %d)", ErrNoCredits, r.cap)
	}
	tail := int(r.words[r.cap+tailOff])
	r.words[tail%r.cap] = w
	r.words[r.cap+tailOff] = uint64((tail + 1) % (2 * r.cap))
	r.credits--
	r.consumed++
	return nil
}

// Pop removes and returns the oldest word. The freed slot becomes a
// pending credit; call ReturnCredits to batch it back to the sender.
func (r *Ring) Pop() (uint64, bool) {
	head := int(r.words[r.cap+headOff])
	tail := int(r.words[r.cap+tailOff])
	if head == tail {
		return 0, false
	}
	w := r.words[head%r.cap]
	r.words[r.cap+headOff] = uint64((head + 1) % (2 * r.cap))
	r.pendingCredits++
	return w, true
}

// ReturnCredits flushes the consumer's pending credits back to the
// sender (one control-word write on real hardware) and returns how
// many were returned.
func (r *Ring) ReturnCredits() int {
	n := r.pendingCredits
	r.credits += n
	r.returned += n
	r.pendingCredits = 0
	return n
}

// DrainTo pops up to max entries into out and returns the count. Pass
// max < 0 for everything. Credits are NOT auto-returned.
func (r *Ring) DrainTo(out []uint64, max int) int {
	n := 0
	for (max < 0 || n < max) && n < len(out) {
		w, ok := r.Pop()
		if !ok {
			break
		}
		out[n] = w
		n++
	}
	return n
}
