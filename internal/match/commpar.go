package match

import (
	"fmt"

	"simtmp/internal/envelope"
	"simtmp/internal/simt"
	"simtmp/internal/timing"
)

// CommParallelMatcher exploits the parallelism level the paper's §VI
// names first: "The top level partitions among communicators, as there
// exist no dependencies" — the communicator admits no wildcard, so
// matching is embarrassingly parallel across communicators WITHOUT any
// semantic relaxation. The paper then notes "unfortunately applications
// tend to use only a single communicator"; MiniDFT (7 communicators)
// is the exception this engine pays off for.
//
// Each communicator gets its own inner matcher (matrix by default, so
// full MPI semantics hold); communicators run on disjoint warp/CTA
// resources, so the slowest one dominates.
type CommParallelMatcher struct {
	cfg   MatrixConfig
	model timing.Model
}

// NewCommParallelMatcher returns a communicator-parallel matcher with
// the given per-communicator matrix configuration.
func NewCommParallelMatcher(cfg MatrixConfig) *CommParallelMatcher {
	c := cfg.withDefaults()
	return &CommParallelMatcher{cfg: c, model: timing.NewModel(c.Arch)}
}

// Name implements Matcher.
func (c *CommParallelMatcher) Name() string {
	return fmt.Sprintf("gpu-comm-parallel(%s)", c.cfg.Arch.Generation)
}

// Contract implements Contractor: communicator partitioning needs no
// relaxation, so full MPI semantics hold.
func (c *CommParallelMatcher) Contract() Contract { return fullMPIContract() }

// Match implements Matcher with full MPI semantics: the partition key
// is the communicator, which is always concrete on both sides.
func (c *CommParallelMatcher) Match(msgs []envelope.Envelope, reqs []envelope.Request) (*Result, error) {
	if err := validateInputs(msgs, reqs); err != nil {
		return nil, err
	}
	res := &Result{Assignment: make(Assignment, len(reqs))}
	for i := range res.Assignment {
		res.Assignment[i] = NoMatch
	}
	if len(msgs) == 0 || len(reqs) == 0 {
		return res, nil
	}

	type part struct {
		msgs   []envelope.Envelope
		msgIdx []int
		reqs   []envelope.Request
		reqIdx []int
	}
	parts := map[envelope.Comm]*part{}
	order := []envelope.Comm{}
	get := func(cm envelope.Comm) *part {
		if p, ok := parts[cm]; ok {
			return p
		}
		p := &part{}
		parts[cm] = p
		order = append(order, cm)
		return p
	}
	for i, m := range msgs {
		p := get(m.Comm)
		p.msgs = append(p.msgs, m)
		p.msgIdx = append(p.msgIdx, i)
	}
	for i, r := range reqs {
		p := get(r.Comm)
		p.reqs = append(p.reqs, r)
		p.reqIdx = append(p.reqIdx, i)
	}

	// Each communicator's engine runs on its own resources: the wall
	// time is the slowest communicator's, not the sum — this is the
	// §VI "inherent" parallelism.
	var worst float64
	var totalCtrs simt.Counters
	iterations := 0
	for _, cm := range order {
		p := parts[cm]
		inner := NewMatrixMatcher(c.cfg)
		r, err := inner.Match(p.msgs, p.reqs)
		if err != nil {
			return nil, err
		}
		if r.SimSeconds > worst {
			worst = r.SimSeconds
		}
		totalCtrs.Add(&r.Counters)
		if r.Iterations > iterations {
			iterations = r.Iterations
		}
		for li, lm := range r.Assignment {
			if lm != NoMatch {
				res.Assignment[p.reqIdx[li]] = p.msgIdx[lm]
			}
		}
	}
	res.SimSeconds = worst
	res.Counters = totalCtrs
	res.Iterations = iterations
	return res, nil
}

// commParallelArch is a compile-time assertion aid.
var _ Matcher = (*CommParallelMatcher)(nil)
