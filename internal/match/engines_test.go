package match

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"simtmp/internal/arch"
	"simtmp/internal/envelope"
	"simtmp/internal/workload"
)

// orderedEngines returns every engine that must reproduce the oracle
// bit-exactly on wildcard-bearing workloads.
func orderedEngines() []Matcher {
	return []Matcher{
		NewListMatcher(),
		NewBinnedListMatcher(0),
		NewBinnedListMatcher(7),
		NewMatrixMatcher(MatrixConfig{}),
		NewMatrixMatcher(MatrixConfig{Arch: arch.KeplerK80(), Window: 32}),
		NewMatrixMatcher(MatrixConfig{MaxCTAs: 4}),
		NewMatrixMatcher(MatrixConfig{Compact: true}),
	}
}

func TestOrderedEnginesMatchOracleRandom(t *testing.T) {
	configs := []workload.Config{
		{N: 16, Seed: 1},
		{N: 64, Seed: 2}, // fused-path boundary
		{N: 65, Seed: 3}, // just past fused path
		{N: 200, Seed: 4, SrcWildcards: 0.3, TagWildcards: 0.3},
		{N: 500, Seed: 5, Peers: 4, Tags: 3}, // heavy duplicates
		{N: 1024, Seed: 6},
		{N: 1500, Seed: 7},                     // multi-round
		{N: 300, Requests: 120, Seed: 8},       // fewer requests
		{N: 120, Requests: 300, Seed: 9},       // more requests than messages
		{N: 700, Seed: 10, MatchFraction: 0.5}, // half the requests miss
		{N: 2500, Seed: 11, SrcWildcards: 0.1}, // multi-round with wildcards
	}
	for _, cfg := range configs {
		msgs, reqs := workload.Generate(cfg)
		for _, eng := range orderedEngines() {
			res, err := eng.Match(msgs, reqs)
			if err != nil {
				t.Fatalf("%s cfg=%+v: %v", eng.Name(), cfg, err)
			}
			if err := VerifyOrdered(msgs, reqs, res.Assignment); err != nil {
				t.Errorf("%s cfg=%+v: %v", eng.Name(), cfg, err)
			}
		}
	}
}

func TestOrderedEnginesPropertyFuzz(t *testing.T) {
	// Many small random workloads with aggressive wildcard rates and
	// tiny tuple spaces — the regime where ordering bugs hide.
	rng := rand.New(rand.NewSource(99))
	engines := orderedEngines()
	for trial := 0; trial < 60; trial++ {
		cfg := workload.Config{
			N:             rng.Intn(300) + 1,
			Requests:      rng.Intn(300) + 1,
			Peers:         rng.Intn(5) + 1,
			Tags:          rng.Intn(4) + 1,
			SrcWildcards:  rng.Float64() * 0.5,
			TagWildcards:  rng.Float64() * 0.5,
			MatchFraction: 0.5 + rng.Float64()*0.5,
			Seed:          rng.Int63(),
		}
		msgs, reqs := workload.Generate(cfg)
		for _, eng := range engines {
			res, err := eng.Match(msgs, reqs)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, eng.Name(), err)
			}
			if err := VerifyOrdered(msgs, reqs, res.Assignment); err != nil {
				t.Fatalf("trial %d %s cfg=%+v: %v", trial, eng.Name(), cfg, err)
			}
		}
	}
}

func TestEnginesEmptyInputs(t *testing.T) {
	engines := append(orderedEngines(),
		NewPartitionedMatcher(PartitionedConfig{Queues: 4}),
		MustHashMatcher(HashConfig{}))
	msgs, reqs := workload.FullyMatching(32, 1)
	for _, eng := range engines {
		if res, err := eng.Match(nil, nil); err != nil || len(res.Assignment) != 0 {
			t.Errorf("%s empty/empty: %v, %v", eng.Name(), res, err)
		}
		if res, err := eng.Match(msgs, nil); err != nil || len(res.Assignment) != 0 {
			t.Errorf("%s msgs/empty: %v, %v", eng.Name(), res, err)
		}
		res, err := eng.Match(nil, reqs)
		if err != nil {
			t.Errorf("%s empty/reqs: %v", eng.Name(), err)
			continue
		}
		if res.Assignment.Matched() != 0 {
			t.Errorf("%s matched against no messages", eng.Name())
		}
	}
}

func TestMatrixSimulatedTimePositive(t *testing.T) {
	msgs, reqs := workload.FullyMatching(512, 2)
	for _, a := range arch.All() {
		m := NewMatrixMatcher(MatrixConfig{Arch: a})
		res, err := m.Match(msgs, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if res.SimSeconds <= 0 {
			t.Errorf("%s: SimSeconds = %v", m.Name(), res.SimSeconds)
		}
		if res.Rate() <= 0 {
			t.Errorf("%s: Rate = %v", m.Name(), res.Rate())
		}
		if res.Counters.Ballot == 0 {
			t.Errorf("%s: no ballots billed", m.Name())
		}
	}
}

func TestMatrixCompactionCostsTime(t *testing.T) {
	msgs, reqs := workload.FullyMatching(1024, 3)
	plain, err := NewMatrixMatcher(MatrixConfig{}).Match(msgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := NewMatrixMatcher(MatrixConfig{Compact: true}).Match(msgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.SimSeconds <= plain.SimSeconds {
		t.Errorf("compaction free: %v <= %v", compacted.SimSeconds, plain.SimSeconds)
	}
	// The paper puts compaction at roughly 10%; allow 1%..30%.
	overhead := compacted.SimSeconds/plain.SimSeconds - 1
	if overhead < 0.01 || overhead > 0.30 {
		t.Errorf("compaction overhead = %.1f%%, want 1%%..30%%", overhead*100)
	}
}

func TestPartitionedRejectsSourceWildcard(t *testing.T) {
	p := NewPartitionedMatcher(PartitionedConfig{Queues: 8})
	msgs := []envelope.Envelope{env(1, 1)}
	reqs := []envelope.Request{{Src: envelope.AnySource, Tag: 1}}
	if _, err := p.Match(msgs, reqs); !errors.Is(err, ErrSourceWildcard) {
		t.Errorf("err = %v, want ErrSourceWildcard", err)
	}
}

func TestPartitionedAllowsTagWildcard(t *testing.T) {
	p := NewPartitionedMatcher(PartitionedConfig{Queues: 4})
	msgs := []envelope.Envelope{env(1, 7)}
	reqs := []envelope.Request{{Src: 1, Tag: envelope.AnyTag}}
	res, err := p.Match(msgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] != 0 {
		t.Errorf("tag wildcard unmatched: %v", res.Assignment)
	}
}

func TestPartitionedMatchesOracle(t *testing.T) {
	for _, q := range []int{1, 2, 4, 8, 16, 32} {
		for _, seed := range []int64{1, 2, 3} {
			cfg := workload.Config{N: 600, Peers: 24, Tags: 8, TagWildcards: 0.2, Seed: seed}
			msgs, reqs := workload.Generate(cfg)
			p := NewPartitionedMatcher(PartitionedConfig{Queues: q})
			res, err := p.Match(msgs, reqs)
			if err != nil {
				t.Fatalf("q=%d: %v", q, err)
			}
			if err := VerifyOrdered(msgs, reqs, res.Assignment); err != nil {
				t.Errorf("q=%d seed=%d: %v", q, seed, err)
			}
		}
	}
}

func TestPartitionedMultiCTA(t *testing.T) {
	msgs, reqs := workload.Generate(workload.Config{N: 4096, Peers: 32, Seed: 5})
	p := NewPartitionedMatcher(PartitionedConfig{Queues: 8, MaxCTAs: 4})
	res, err := p.Match(msgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOrdered(msgs, reqs, res.Assignment); err != nil {
		t.Error(err)
	}
	if res.SimSeconds <= 0 {
		t.Error("no simulated time")
	}
}

func TestHashRejectsWildcards(t *testing.T) {
	h := MustHashMatcher(HashConfig{})
	msgs := []envelope.Envelope{env(1, 1)}
	for _, r := range []envelope.Request{
		{Src: envelope.AnySource, Tag: 1},
		{Src: 1, Tag: envelope.AnyTag},
	} {
		if _, err := h.Match(msgs, []envelope.Request{r}); !errors.Is(err, ErrWildcard) {
			t.Errorf("request %v: err = %v, want ErrWildcard", r, err)
		}
	}
}

func TestHashMatchesMaximally(t *testing.T) {
	configs := []workload.Config{
		{N: 64, Seed: 1, Unique: true, Peers: 8},
		{N: 1024, Seed: 2, Unique: true, Peers: 32},
		{N: 777, Seed: 3, Peers: 4, Tags: 3},                // heavy duplicates
		{N: 500, Seed: 4, MatchFraction: 0.5},               // misses
		{N: 300, Requests: 600, Seed: 5, Peers: 2, Tags: 2}, // extreme collisions
	}
	for _, cfg := range configs {
		msgs, reqs := workload.Generate(cfg)
		for _, ctas := range []int{1, 4, 32} {
			h := MustHashMatcher(HashConfig{CTAs: ctas})
			res, err := h.Match(msgs, reqs)
			if err != nil {
				t.Fatalf("cfg=%+v ctas=%d: %v", cfg, ctas, err)
			}
			if err := VerifyUnordered(msgs, reqs, res.Assignment); err != nil {
				t.Errorf("cfg=%+v ctas=%d: %v", cfg, ctas, err)
			}
		}
	}
}

func TestHashAllFunctionsAndPolicies(t *testing.T) {
	msgs, reqs := workload.Generate(workload.Config{N: 800, Peers: 16, Tags: 16, Seed: 6})
	for _, name := range []string{"jenkins", "fnv1a", "xorshift"} {
		for _, pol := range []CollisionPolicy{TwoLevel, LinearProbe} {
			h := MustHashMatcher(HashConfig{HashName: name, Policy: pol})
			res, err := h.Match(msgs, reqs)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, pol, err)
			}
			if err := VerifyUnordered(msgs, reqs, res.Assignment); err != nil {
				t.Errorf("%s/%s: %v", name, pol, err)
			}
		}
	}
}

func TestHashPropertyFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		cfg := workload.Config{
			N:             rng.Intn(500) + 1,
			Requests:      rng.Intn(500) + 1,
			Peers:         rng.Intn(8) + 1,
			Tags:          rng.Intn(6) + 1,
			MatchFraction: 0.3 + rng.Float64()*0.7,
			Seed:          rng.Int63(),
		}
		msgs, reqs := workload.Generate(cfg)
		h := MustHashMatcher(HashConfig{CTAs: rng.Intn(8) + 1})
		res, err := h.Match(msgs, reqs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := VerifyUnordered(msgs, reqs, res.Assignment); err != nil {
			t.Fatalf("trial %d cfg=%+v: %v", trial, cfg, err)
		}
	}
}

func TestHashBadFunctionName(t *testing.T) {
	if _, err := NewHashMatcher(HashConfig{HashName: "sha256"}); err == nil {
		t.Error("unknown hash accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustHashMatcher did not panic")
		}
	}()
	MustHashMatcher(HashConfig{HashName: "sha256"})
}

func TestEngineNames(t *testing.T) {
	names := map[string]bool{}
	engines := []Matcher{
		NewListMatcher(),
		NewMatrixMatcher(MatrixConfig{}),
		NewPartitionedMatcher(PartitionedConfig{Queues: 8}),
		NewStreamMatcher(StreamConfig{}),
		MustHashMatcher(HashConfig{}),
		ReferenceMatcher{},
	}
	for _, e := range engines {
		n := e.Name()
		if n == "" || names[n] {
			t.Errorf("engine name %q empty or duplicate", n)
		}
		names[n] = true
	}
}

func TestListMatcherReusableAcrossCalls(t *testing.T) {
	l := NewListMatcher()
	for seed := int64(0); seed < 5; seed++ {
		msgs, reqs := workload.Generate(workload.Config{N: 256, Seed: seed, SrcWildcards: 0.2})
		res, err := l.Match(msgs, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyOrdered(msgs, reqs, res.Assignment); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTableSizes(t *testing.T) {
	p, s, _ := tableSizes(1000)
	if p != 5*s {
		t.Errorf("primary %d != 5× secondary %d", p, s)
	}
	if p+s < 1000 {
		t.Errorf("tables too small: %d+%d < 1000", p, s)
	}
	if _, s, _ := tableSizes(1); s != 64 {
		t.Errorf("minimum secondary = %d, want 64", s)
	}
}

// TestTableSizesBound: the largest batch tableSizes accepts keeps both
// tables together below 2^32 slots, the bound of the division-free
// slot hashing; one element more is an error.
func TestTableSizesBound(t *testing.T) {
	p, s, err := tableSizes(1 << 29)
	if err != nil || uint64(p+s) >= 1<<32 {
		t.Errorf("tableSizes(2^29) = %d, %d, %v; want below 2^32 slots in all", p, s, err)
	}
	if _, _, err := tableSizes(1<<29 + 1); err == nil || !strings.Contains(err.Error(), "2^32") {
		t.Errorf("tableSizes(2^29+1) err = %v, want the table-size bound", err)
	}
}

func TestCollisionPolicyString(t *testing.T) {
	if TwoLevel.String() != "two-level" || LinearProbe.String() != "linear-probe" {
		t.Error("policy names wrong")
	}
	if CollisionPolicy(7).String() != "CollisionPolicy(7)" {
		t.Error("unknown policy name wrong")
	}
}

// TestHashReuseMatchesFresh gives each hash policy a large batch whose
// unmatched requests leave keys in the table, then a small batch, and
// checks that the small batch's Result equals a fresh engine's: the
// table recycled from the large call must start as empty as a new one.
func TestHashReuseMatchesFresh(t *testing.T) {
	// Unique tuples: the small batch's keys are a subset of the large
	// batch's, so a stale entry would be claimed by a small-batch probe.
	bigMsgs, bigReqs := workload.UniqueTuples(3000, 1)
	bigMsgs = bigMsgs[:100]
	msgs, reqs := workload.UniqueTuples(40, 2)
	for _, policy := range []CollisionPolicy{TwoLevel, LinearProbe} {
		cfg := HashConfig{CTAs: 2, Policy: policy}
		reused := MustHashMatcher(cfg)
		if _, err := reused.Match(bigMsgs, bigReqs); err != nil {
			t.Fatal(err)
		}
		got, err := reused.Match(msgs, reqs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MustHashMatcher(cfg).Match(msgs, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: reused engine returned %+v, fresh engine %+v", policy, got, want)
		}
	}
}
