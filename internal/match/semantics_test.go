package match

import (
	"errors"
	"testing"

	"simtmp/internal/envelope"
)

// allEngines returns one instance of every engine in the package.
func allEngines() []Matcher {
	return []Matcher{
		ReferenceMatcher{},
		NewListMatcher(),
		NewBinnedListMatcher(0),
		NewMatrixMatcher(MatrixConfig{}),
		NewCommParallelMatcher(MatrixConfig{}),
		NewPartitionedMatcher(PartitionedConfig{}),
		NewStreamMatcher(StreamConfig{}),
		MustHashMatcher(HashConfig{}),
		mustWildcardHash(),
	}
}

func mustWildcardHash() *WildcardHashMatcher {
	w, err := NewWildcardHashMatcher(HashConfig{})
	if err != nil {
		panic(err)
	}
	return w
}

func TestEveryEngineDeclaresContract(t *testing.T) {
	for _, e := range allEngines() {
		c, err := ContractOf(e)
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		// An ordered engine admitting no wildcards would be the hash
		// contract with ordering — no engine claims that; sanity-check
		// the declared combinations are the known ones.
		switch {
		case c.Semantics == Ordered && c.SrcWildcard && c.TagWildcard:
		case c.Semantics == Ordered && !c.SrcWildcard && c.TagWildcard:
		case c.Semantics == Unordered && !c.SrcWildcard && !c.TagWildcard:
		case c.Semantics == GreedyMaximal && c.SrcWildcard && c.TagWildcard:
		default:
			t.Errorf("%s: unexpected contract %+v", e.Name(), c)
		}
	}
}

func TestContractOfUndeclared(t *testing.T) {
	var bare bareMatcher
	if _, err := ContractOf(bare); err == nil {
		t.Error("ContractOf accepted a matcher without a contract")
	}
}

// bareMatcher implements Matcher but not Contractor.
type bareMatcher struct{}

func (bareMatcher) Name() string { return "bare" }
func (bareMatcher) Match(msgs []envelope.Envelope, reqs []envelope.Request) (*Result, error) {
	return &Result{Assignment: make(Assignment, len(reqs))}, nil
}

func TestContractAdmitsAndRejectionError(t *testing.T) {
	concrete := envelope.Request{Src: 1, Tag: 2}
	srcWild := envelope.Request{Src: envelope.AnySource, Tag: 2}
	tagWild := envelope.Request{Src: 1, Tag: envelope.AnyTag}

	full := fullMPIContract()
	if !full.AdmitsAll([]envelope.Request{concrete, srcWild, tagWild}) {
		t.Error("full contract rejected a request")
	}
	if err := full.RejectionError(srcWild); err != nil {
		t.Errorf("full contract wants rejection: %v", err)
	}

	part := NewPartitionedMatcher(PartitionedConfig{}).Contract()
	if part.Admits(srcWild) {
		t.Error("partitioned contract admits AnySource")
	}
	if !part.Admits(tagWild) || !part.Admits(concrete) {
		t.Error("partitioned contract rejects a legal request")
	}
	if err := part.RejectionError(srcWild); !errors.Is(err, ErrSourceWildcard) {
		t.Errorf("partitioned rejection = %v, want ErrSourceWildcard", err)
	}

	hash := MustHashMatcher(HashConfig{}).Contract()
	if hash.Admits(srcWild) || hash.Admits(tagWild) {
		t.Error("hash contract admits a wildcard")
	}
	for _, r := range []envelope.Request{srcWild, tagWild} {
		if err := hash.RejectionError(r); !errors.Is(err, ErrWildcard) {
			t.Errorf("hash rejection for %v = %v, want ErrWildcard", r, err)
		}
	}
}

func TestContractVerifyDispatch(t *testing.T) {
	msgs := []envelope.Envelope{env(1, 1), env(1, 1)}
	reqs := []envelope.Request{{Src: 1, Tag: 1}, {Src: 1, Tag: 1}}
	inOrder := Assignment{0, 1}
	reversed := Assignment{1, 0}

	ordered := Contract{Semantics: Ordered}
	if err := ordered.Verify(msgs, reqs, inOrder); err != nil {
		t.Errorf("ordered rejected oracle assignment: %v", err)
	}
	if err := ordered.Verify(msgs, reqs, reversed); err == nil {
		t.Error("ordered accepted a reordered assignment")
	}
	unordered := Contract{Semantics: Unordered}
	if err := unordered.Verify(msgs, reqs, reversed); err != nil {
		t.Errorf("unordered rejected a legal reordering: %v", err)
	}
	greedy := Contract{Semantics: GreedyMaximal}
	if err := greedy.Verify(msgs, reqs, reversed); err != nil {
		t.Errorf("greedy-maximal rejected a legal reordering: %v", err)
	}
	if err := (Contract{Semantics: Semantics(9)}).Verify(msgs, reqs, inOrder); err == nil {
		t.Error("unknown semantics verified")
	}
}

func TestSemanticsString(t *testing.T) {
	want := map[Semantics]string{
		Ordered:       "ordered",
		Unordered:     "unordered",
		GreedyMaximal: "greedy-maximal",
		Semantics(5):  "Semantics(5)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
}

func TestCheckAssignment(t *testing.T) {
	msgs := []envelope.Envelope{env(1, 1), env(2, 2)}
	reqs := []envelope.Request{{Src: 1, Tag: 1}, {Src: 2, Tag: 2}}
	cases := []struct {
		name string
		a    Assignment
		ok   bool
	}{
		{"valid", Assignment{0, 1}, true},
		{"all unmatched", Assignment{NoMatch, NoMatch}, true},
		{"wrong length", Assignment{0}, false},
		{"out of range", Assignment{2, NoMatch}, false},
		{"negative index", Assignment{-2, NoMatch}, false},
		{"double claim", Assignment{0, 0}, false},
		{"mismatched pairing", Assignment{1, NoMatch}, false},
	}
	for _, c := range cases {
		err := CheckAssignment(msgs, reqs, c.a)
		if (err == nil) != c.ok {
			t.Errorf("%s: CheckAssignment = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestEnginesHonorDeclaredRejections drives each engine with prohibited
// wildcards and asserts the contract's rejection error surfaces — the
// "no more permissive than declared" half of the conformance story.
func TestEnginesHonorDeclaredRejections(t *testing.T) {
	msgs := []envelope.Envelope{env(1, 1)}
	srcWild := []envelope.Request{{Src: envelope.AnySource, Tag: 1}}
	tagWild := []envelope.Request{{Src: 1, Tag: envelope.AnyTag}}
	for _, e := range allEngines() {
		c, err := ContractOf(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, reqs := range [][]envelope.Request{srcWild, tagWild} {
			want := c.RejectionError(reqs[0])
			_, got := e.Match(msgs, reqs)
			if want == nil && got != nil {
				t.Errorf("%s rejected admitted request %v: %v", e.Name(), reqs[0], got)
			}
			if want != nil && !errors.Is(got, want) {
				t.Errorf("%s: Match err = %v, want %v", e.Name(), got, want)
			}
		}
	}
}
