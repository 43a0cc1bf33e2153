package conformance

import (
	"errors"
	"fmt"

	"simtmp/internal/match"
)

// Engine names one matching engine under test and knows how to build a
// fresh instance. Instances are stateless across Match calls, but each
// harness gets its own anyway so parallel tests never share one.
type Engine struct {
	Name string
	New  func() match.Matcher
}

// Engines returns every engine the harness differentially tests
// against the ordered oracle. The reference matcher itself is included
// last: the harness must agree with the oracle about the oracle.
func Engines() []Engine {
	return []Engine{
		{"list", func() match.Matcher { return match.NewListMatcher() }},
		{"binned", func() match.Matcher { return match.NewBinnedListMatcher(16) }},
		{"matrix", func() match.Matcher { return match.NewMatrixMatcher(match.MatrixConfig{Compact: true}) }},
		{"commpar", func() match.Matcher { return match.NewCommParallelMatcher(match.MatrixConfig{Compact: true}) }},
		{"partitioned", func() match.Matcher { return match.NewPartitionedMatcher(match.PartitionedConfig{Queues: 8}) }},
		{"hashmatch", func() match.Matcher { return match.MustHashMatcher(match.HashConfig{}) }},
		{"stream", func() match.Matcher { return match.NewStreamMatcher(match.StreamConfig{Streams: 8}) }},
		{"reference", func() match.Matcher { return match.ReferenceMatcher{} }},
	}
}

// Check runs one engine on one workload and verifies the result against
// the engine's declared contract:
//
//   - a workload containing a request the contract prohibits must be
//     rejected, wrapping the exact sentinel (ErrSourceWildcard or
//     ErrWildcard) the contract specifies;
//   - an admissible workload must be accepted, and the assignment must
//     verify under the contract's semantics level (bit-exact oracle
//     equality for Ordered, maximum-cardinality tuple matching for
//     Unordered, greedy maximality for GreedyMaximal).
//
// A nil return means the engine conformed.
func Check(m match.Matcher, w Workload) error {
	contract, err := match.ContractOf(m)
	if err != nil {
		return err
	}
	var sentinels []error
	for _, r := range w.Reqs {
		if e := contract.RejectionError(r); e != nil {
			sentinels = append(sentinels, e)
		}
	}
	res, err := m.Match(w.Msgs, w.Reqs)
	if len(sentinels) > 0 {
		if err == nil {
			return fmt.Errorf("%s accepted a workload with prohibited wildcards (contract %+v)",
				m.Name(), contract)
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return nil // legal rejection with the right sentinel
			}
		}
		return fmt.Errorf("%s rejected with %q, want sentinel %v", m.Name(), err, sentinels[0])
	}
	if err != nil {
		return fmt.Errorf("%s rejected an admissible workload: %w", m.Name(), err)
	}
	if verr := contract.Verify(w.Msgs, w.Reqs, res.Assignment); verr != nil {
		return fmt.Errorf("%s (%s semantics): %w", m.Name(), contract.Semantics, verr)
	}
	return nil
}

// Failure records one conformance violation with its replay handle.
type Failure struct {
	Engine string
	Index  int   // workload index within the run
	Seed   int64 // run seed; WorkloadAt(Seed, Index) reproduces
	Err    error
}

// String formats the failure with the replay recipe.
func (f Failure) String() string {
	return fmt.Sprintf("%s: workload %d (replay: conformance.WorkloadAt(%d, %d)): %v",
		f.Engine, f.Index, f.Seed, f.Index, f.Err)
}

// Report summarizes one engine's run.
type Report struct {
	Engine    string
	Workloads int
	Failures  []Failure
}

// Run generates n seeded workloads and checks every engine on each.
// Workloads are generated once and shared across engines, so a failure
// on one engine can be compared against the others' behavior on the
// identical input. It returns one report per engine; a clean run has
// empty Failures everywhere.
func Run(seed int64, n int) []Report {
	engines := Engines()
	reports := make([]Report, len(engines))
	matchers := make([]match.Matcher, len(engines))
	for i, e := range engines {
		reports[i] = Report{Engine: e.Name, Workloads: n}
		matchers[i] = e.New()
	}
	for i := 0; i < n; i++ {
		w := WorkloadAt(seed, i)
		for ei := range engines {
			if err := Check(matchers[ei], w); err != nil {
				reports[ei].Failures = append(reports[ei].Failures, Failure{
					Engine: engines[ei].Name, Index: i, Seed: seed, Err: err,
				})
			}
		}
	}
	return reports
}
