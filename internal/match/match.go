// Package match implements the paper's four message-matching engines
// behind one interface:
//
//   - Reference: the sequential oracle defining the ordered-matching
//     semantics (used as the test oracle, not benchmarked).
//   - List: the CPU baseline — linked-list UMQ/PRQ traversal as in
//     mainstream MPI implementations (§II-C).
//   - Matrix: the paper's fully MPI-compliant GPU algorithm
//     (Algorithms 1 and 2): a warp-ballot scan building a vote matrix,
//     then a sequential reduce resolving ordering dependencies.
//   - Partitioned: the "no source wildcard" relaxation — the rank space
//     statically partitioned into multiple queues matched in parallel.
//     The same engine keyed on stream id instead of source rank is the
//     MPIX Stream relaxation (NewStreamMatcher): wildcards admitted,
//     ordering owed per stream, no cross-queue contention.
//   - Hash: the "no wildcards, no ordering" relaxation — a two-level
//     hash table with constant-time insert and probe.
//
// The batch semantics: receive requests are satisfied in posted order;
// each request claims the earliest (arrival-order) unclaimed message
// whose envelope matches. The Hash matcher relaxes the "earliest" part
// to "any", which is exactly the ordering relaxation of §VI-C.
package match

import (
	"errors"
	"fmt"

	"simtmp/internal/envelope"
	"simtmp/internal/simt"
)

// NoMatch marks a request that found no message.
const NoMatch = -1

// Assignment maps each request index to the matched message index, or
// NoMatch.
type Assignment []int

// Matched returns the number of satisfied requests.
func (a Assignment) Matched() int {
	n := 0
	for _, m := range a {
		if m != NoMatch {
			n++
		}
	}
	return n
}

// Result reports one batch-matching run.
type Result struct {
	Assignment Assignment
	// SimSeconds is the simulated device time (0 for host matchers,
	// which are measured in wall-clock by the benchmarks instead).
	SimSeconds float64
	// Counters is the SIMT work executed (zero for host matchers).
	Counters simt.Counters
	// Iterations is the number of kernel iterations the engine needed.
	Iterations int
}

// Rate returns matches per simulated second, or 0 for host matchers.
func (r *Result) Rate() float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return float64(r.Assignment.Matched()) / r.SimSeconds
}

// reset readies a Result for reuse: all-NoMatch assignment of length n
// (reusing the backing array when large enough), zeroed metrics.
func (r *Result) reset(n int) {
	r.Assignment = ensureAssignment(r.Assignment, n)
	r.SimSeconds = 0
	r.Counters = simt.Counters{}
	r.Iterations = 0
}

// Matcher is a batch message-matching engine.
type Matcher interface {
	// Name identifies the engine for reports.
	Name() string
	// Match pairs messages with receive requests per the engine's
	// semantics. Engines reject inputs their relaxation prohibits
	// (e.g. wildcards on the partitioned and hash engines).
	Match(msgs []envelope.Envelope, reqs []envelope.Request) (*Result, error)
}

// ReusableMatcher is implemented by engines whose steady-state hot path
// allocates nothing: MatchInto recycles both the caller-owned Result
// and the engine's internal scratch buffers (grown monotonically). The
// mpx drain loop uses it when available.
type ReusableMatcher interface {
	Matcher
	// MatchInto is Match writing into res instead of allocating a new
	// Result. res must not be read concurrently with the call; its
	// Assignment backing array is reused across calls.
	MatchInto(res *Result, msgs []envelope.Envelope, reqs []envelope.Request) error
}

// Relaxation errors.
var (
	// ErrSourceWildcard is returned by engines that require the
	// "no source wildcard" relaxation.
	ErrSourceWildcard = errors.New("match: MPI_ANY_SOURCE prohibited under this relaxation")
	// ErrWildcard is returned by engines that prohibit all wildcards.
	ErrWildcard = errors.New("match: wildcards prohibited under this relaxation")
)

// validateInputs checks envelope/request well-formedness common to all
// engines.
func validateInputs(msgs []envelope.Envelope, reqs []envelope.Request) error {
	for i, m := range msgs {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("message %d: %w", i, err)
		}
	}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

// packInputs is validateInputs for the GPU engines: it checks every
// envelope and request and packs each, once, into msgBuf and reqBuf
// (grown as needed), which it returns resized to the inputs.
func packInputs(msgs []envelope.Envelope, reqs []envelope.Request, msgBuf, reqBuf []uint64) ([]uint64, []uint64, error) {
	var err error
	msgBuf = grow(msgBuf, len(msgs))
	for i, m := range msgs {
		if msgBuf[i], err = m.Encode(); err != nil {
			return msgBuf, reqBuf, fmt.Errorf("message %d: %w", i, err)
		}
	}
	reqBuf = grow(reqBuf, len(reqs))
	for i, r := range reqs {
		if reqBuf[i], err = r.Encode(); err != nil {
			return msgBuf, reqBuf, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return msgBuf, reqBuf, nil
}

// VerifyOrdered checks that an assignment obeys the ordered-matching
// contract against the inputs: every pairing matches, no message is
// claimed twice, each request got the earliest message still available
// at its turn, and no satisfiable request was left unmatched.
func VerifyOrdered(msgs []envelope.Envelope, reqs []envelope.Request, a Assignment) error {
	if len(a) != len(reqs) {
		return fmt.Errorf("assignment has %d entries for %d requests", len(a), len(reqs))
	}
	want := Reference(msgs, reqs)
	for i := range a {
		if a[i] != want[i] {
			return fmt.Errorf("request %d: got message %d, oracle says %d", i, a[i], want[i])
		}
	}
	return nil
}

// VerifyUnordered checks an assignment under relaxed ordering: every
// pairing must have equal {src,tag,comm} tuples, no message claimed
// twice, and the number of matches must equal the maximum possible
// (per-tuple min of message and request multiplicities).
func VerifyUnordered(msgs []envelope.Envelope, reqs []envelope.Request, a Assignment) error {
	if err := CheckAssignment(msgs, reqs, a); err != nil {
		return err
	}
	for i, m := range a {
		if m != NoMatch && reqs[i].HasWildcard() {
			return fmt.Errorf("request %d: wildcard present under unordered semantics", i)
		}
	}
	if got, want := a.Matched(), MaxMatchable(msgs, reqs); got != want {
		return fmt.Errorf("matched %d pairs, maximum is %d", got, want)
	}
	return nil
}

// MaxMatchable returns the maximum number of wildcard-free pairings:
// for each distinct tuple, min(#messages, #requests).
func MaxMatchable(msgs []envelope.Envelope, reqs []envelope.Request) int {
	mc := make(map[uint64]int)
	for _, m := range msgs {
		mc[m.Key()]++
	}
	total := 0
	rc := make(map[uint64]int)
	for _, r := range reqs {
		if r.HasWildcard() {
			continue
		}
		k := r.Key()
		if rc[k] < mc[k] {
			rc[k]++
			total++
		}
	}
	return total
}
