package match

import (
	"testing"

	"simtmp/internal/envelope"
)

func penv(src envelope.Rank, tag envelope.Tag, comm envelope.Comm) envelope.Envelope {
	return envelope.Envelope{Src: src, Tag: tag, Comm: comm}
}

func TestPersistentCacheAllocSealLookup(t *testing.T) {
	c := NewPersistentCache()
	e := penv(1, 7, 0)
	id, err := c.Alloc(e, "user")
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("HandleID 0 allocated (reserved for none)")
	}
	if c.IsSealed(id) || c.SealedCount() != 0 {
		t.Error("sealed before Seal")
	}
	if got := c.SealedForKey(e.Key()); len(got) != 0 {
		t.Errorf("SealedForKey before seal = %v", got)
	}
	if err := c.Seal(id); err != nil {
		t.Fatal(err)
	}
	if !c.IsSealed(id) || c.SealedCount() != 1 {
		t.Error("not sealed after Seal")
	}
	if got := c.SealedForKey(e.Key()); len(got) != 1 || got[0] != id {
		t.Errorf("SealedForKey = %v, want [%d]", got, id)
	}
	if u, _ := c.User(id).(string); u != "user" {
		t.Errorf("User = %v", c.User(id))
	}
	if c.Env(id) != e {
		t.Errorf("Env = %v", c.Env(id))
	}
	// Sealing again is a no-op, not a duplicate index entry.
	if err := c.Seal(id); err != nil {
		t.Fatal(err)
	}
	if got := c.SealedForKey(e.Key()); len(got) != 1 {
		t.Errorf("double seal duplicated index: %v", got)
	}
}

func TestPersistentCacheAllocValidation(t *testing.T) {
	c := NewPersistentCache()
	if _, err := c.Alloc(penv(-1, 7, 0), nil); err == nil {
		t.Error("wildcard-src envelope accepted")
	}
	if err := c.Seal(0); err == nil {
		t.Error("Seal(0) accepted")
	}
	if err := c.Seal(99); err == nil {
		t.Error("Seal of unallocated handle accepted")
	}
}

func TestPersistentCacheReleaseRecycles(t *testing.T) {
	c := NewPersistentCache()
	e := penv(2, 3, 1)
	id, _ := c.Alloc(e, nil)
	if err := c.Seal(id); err != nil {
		t.Fatal(err)
	}
	c.Release(id)
	if c.SealedCount() != 0 || c.IsSealed(id) {
		t.Error("release left the handle sealed")
	}
	if len(c.SealedForKey(e.Key())) != 0 {
		t.Error("release left the key index populated")
	}
	id2, _ := c.Alloc(e, nil)
	if id2 != id {
		t.Errorf("freed slot not recycled: got %d, want %d", id2, id)
	}
	c.Release(0)  // no-op
	c.Release(id) // double release: no-op
	c.Release(id)
}

func TestPersistentCacheInvalidationScopes(t *testing.T) {
	// Three sealed handles: two under (comm 0, tag 7) from different
	// sources, one under (comm 0, tag 8).
	c := NewPersistentCache()
	a, _ := c.Alloc(penv(1, 7, 0), nil)
	b, _ := c.Alloc(penv(2, 7, 0), nil)
	d, _ := c.Alloc(penv(1, 8, 0), nil)
	for _, id := range []HandleID{a, b, d} {
		if err := c.Seal(id); err != nil {
			t.Fatal(err)
		}
	}

	// Exact key: only the matching handle unseals.
	got := c.InvalidateKey(penv(1, 7, 0).Key(), nil)
	if len(got) != 1 || got[0] != a {
		t.Errorf("InvalidateKey = %v, want [%d]", got, a)
	}
	if c.SealedCount() != 2 || c.IsSealed(a) {
		t.Error("exact-key invalidation leaked scope")
	}

	// Shadow: the remaining (comm 0, tag 7) handle unseals, tag 8 stays.
	got = c.InvalidateShadow(0, 7, got[:0])
	if len(got) != 1 || got[0] != b {
		t.Errorf("InvalidateShadow = %v, want [%d]", got, b)
	}
	if !c.IsSealed(d) {
		t.Error("shadow invalidation crossed tags")
	}

	// Comm: everything on the communicator unseals.
	if err := c.Seal(a); err != nil {
		t.Fatal(err)
	}
	got = c.InvalidateComm(0, got[:0])
	if len(got) != 2 {
		t.Errorf("InvalidateComm unsealed %v, want 2 handles", got)
	}
	if c.SealedCount() != 0 {
		t.Errorf("SealedCount = %d after comm invalidation", c.SealedCount())
	}

	// Empty scopes are cheap no-ops.
	if got = c.InvalidateComm(3, got[:0]); len(got) != 0 {
		t.Errorf("empty comm invalidation = %v", got)
	}
}

func TestPersistentCacheSameKeyFIFO(t *testing.T) {
	c := NewPersistentCache()
	e := penv(1, 7, 0)
	a, _ := c.Alloc(e, nil)
	b, _ := c.Alloc(e, nil)
	if err := c.Seal(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Seal(b); err != nil {
		t.Fatal(err)
	}
	if got := c.SealedForKey(e.Key()); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("seal-order FIFO = %v, want [%d %d]", got, a, b)
	}
	got := c.InvalidateKey(e.Key(), nil)
	if len(got) != 2 {
		t.Errorf("same-key invalidation = %v", got)
	}
}

func TestSealEligible(t *testing.T) {
	contracts := []Contract{
		{Semantics: Ordered, SrcWildcard: true, TagWildcard: true},
		{Semantics: Ordered},
		{Semantics: Unordered},
		{Semantics: GreedyMaximal, SrcWildcard: true, TagWildcard: true},
	}
	for _, ct := range contracts {
		if !ct.SealEligible(envelope.Request{Src: 1, Tag: 7}) {
			t.Errorf("%+v: concrete request not seal-eligible", ct)
		}
		if ct.SealEligible(envelope.Request{Src: envelope.AnySource, Tag: 7}) {
			t.Errorf("%+v: AnySource request seal-eligible", ct)
		}
		if ct.SealEligible(envelope.Request{Src: 1, Tag: envelope.AnyTag}) {
			t.Errorf("%+v: AnyTag request seal-eligible", ct)
		}
	}
}
