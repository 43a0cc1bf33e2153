package match

import (
	"fmt"

	"simtmp/internal/envelope"
	"simtmp/internal/simt"
	"simtmp/internal/timing"
)

// WildcardHashMatcher extends the hash matcher with wildcard support,
// the possibility the paper raises in §VI-C ("theoretically they could
// be supported with hash tables as well"): wildcard-free requests use
// the two-level table exactly as HashMatcher does; wildcard requests
// live in a side list that messages scan (a serial, billed walk) after
// missing in the tables. Ordering remains relaxed; a message prefers a
// concrete table hit over a wildcard entry.
//
// The matcher exists to quantify the cost of that theoretical option:
// the wildcard side list reintroduces exactly the serial dependency the
// relaxation removed, so the rate degrades with the wildcard fraction —
// the measurement behind the ablation in the benchmark harness.
type WildcardHashMatcher struct {
	inner *HashMatcher
	model timing.Model
}

// NewWildcardHashMatcher wraps a hash configuration with wildcard
// support.
func NewWildcardHashMatcher(cfg HashConfig) (*WildcardHashMatcher, error) {
	h, err := NewHashMatcher(cfg)
	if err != nil {
		return nil, err
	}
	return &WildcardHashMatcher{inner: h, model: h.model}, nil
}

// Name implements Matcher.
func (w *WildcardHashMatcher) Name() string {
	return fmt.Sprintf("gpu-hash-wild(%s,ctas=%d)", w.inner.cfg.Arch.Generation, w.inner.cfg.CTAs)
}

// Contract implements Contractor: wildcards are admitted back, but
// ordering stays relaxed and only greedy maximality is promised once
// wildcard and concrete requests compete for messages.
func (w *WildcardHashMatcher) Contract() Contract {
	return Contract{Semantics: GreedyMaximal, SrcWildcard: true, TagWildcard: true}
}

// Match implements Matcher: concrete requests through the tables,
// wildcard requests through the billed side list.
func (w *WildcardHashMatcher) Match(msgs []envelope.Envelope, reqs []envelope.Request) (*Result, error) {
	if err := validateInputs(msgs, reqs); err != nil {
		return nil, err
	}

	// Split requests: concrete → table engine, wildcard → side list.
	var concrete []envelope.Request
	var concreteIdx []int
	var wild []envelope.Request
	var wildIdx []int
	for i, r := range reqs {
		if r.HasWildcard() {
			wild = append(wild, r)
			wildIdx = append(wildIdx, i)
		} else {
			concrete = append(concrete, r)
			concreteIdx = append(concreteIdx, i)
		}
	}

	inner, err := w.inner.Match(msgs, concrete)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Assignment: make(Assignment, len(reqs)),
		SimSeconds: inner.SimSeconds,
		Counters:   inner.Counters,
		Iterations: inner.Iterations,
	}
	for i := range res.Assignment {
		res.Assignment[i] = NoMatch
	}
	claimed := make([]bool, len(msgs))
	for ci, mi := range inner.Assignment {
		res.Assignment[concreteIdx[ci]] = mi
		if mi != NoMatch {
			claimed[mi] = true
		}
	}

	// Side-list pass: each leftover message walks the wildcard list in
	// order. The list is staged once into shared memory (one global
	// load per entry); the walk itself is then a serial chain of
	// shared-memory probes per (message, entry) pair — still the
	// dependency the relaxation was designed to remove, but not billed
	// at DRAM latency.
	var sideCtrs simt.Counters
	sideCtrs.GMemLoad += uint64(len(wild))
	sideCtrs.GMemTrans += uint64((len(wild) + 15) / 16)
	taken := make([]bool, len(wild))
	for mi := range msgs {
		if claimed[mi] {
			continue
		}
		sideCtrs.GMemLoad++ // fetch the message header
		sideCtrs.GMemTrans++
		for wi, r := range wild {
			sideCtrs.ALU += 2
			sideCtrs.SMemLoad++
			if taken[wi] || !r.Matches(msgs[mi]) {
				continue
			}
			taken[wi] = true
			claimed[mi] = true
			res.Assignment[wildIdx[wi]] = mi
			sideCtrs.Atomic++
			sideCtrs.GMemTrans++
			break
		}
	}
	sideCycles := w.model.PhaseCycles(&timing.Phase{Kind: timing.Dependent, Ctrs: sideCtrs})
	res.SimSeconds += w.model.Seconds(sideCycles)
	res.Counters.Add(&sideCtrs)
	return res, nil
}

// VerifyMaximal checks an assignment under wildcard-relaxed unordered
// semantics: every pairing must satisfy its request, no message is
// claimed twice, and the matching is maximal — no unmatched request
// still has an unclaimed matching message (greedy maximality, the
// guarantee the side-list scheme provides; a globally maximum matching
// is not promised once wildcards overlap with concrete requests).
func VerifyMaximal(msgs []envelope.Envelope, reqs []envelope.Request, a Assignment) error {
	if err := CheckAssignment(msgs, reqs, a); err != nil {
		return err
	}
	used := make([]bool, len(msgs))
	for _, mi := range a {
		if mi != NoMatch {
			used[mi] = true
		}
	}
	for i, mi := range a {
		if mi != NoMatch {
			continue
		}
		for m := range msgs {
			if !used[m] && reqs[i].Matches(msgs[m]) {
				return fmt.Errorf("request %d (%v) unmatched although message %d (%v) is free",
					i, reqs[i], m, msgs[m])
			}
		}
	}
	return nil
}
