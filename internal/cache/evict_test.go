package cache

import "testing"

func TestLRUSelectsLeastRecentlyTouched(t *testing.T) {
	l := NewLRU()
	l.OnStore(0, 0, 1)
	l.OnStore(1, 0, 2)
	l.OnStore(2, 0, 3)
	l.OnAccess(0, 0, 4) // node 0 refreshed; node 1 is now oldest
	cands := []Copy{{0, 0}, {1, 0}, {2, 0}}
	v, ok := SelectVictim(l, cands)
	if !ok || v != (Copy{1, 0}) {
		t.Fatalf("victim = %v ok=%v, want {1 0}", v, ok)
	}
	l.OnEvict(1, 0)
	v, _ = SelectVictim(l, []Copy{{0, 0}, {2, 0}})
	if v != (Copy{2, 0}) {
		t.Fatalf("after evict: victim = %v, want {2 0}", v)
	}
}

func TestLFUSelectsLeastFrequentlyUsed(t *testing.T) {
	l := NewLFU()
	for n := 0; n < 3; n++ {
		l.OnStore(n, 7, 0)
	}
	l.OnAccess(0, 7, 1)
	l.OnAccess(0, 7, 2)
	l.OnAccess(2, 7, 3)
	v, ok := SelectVictim(l, []Copy{{0, 7}, {1, 7}, {2, 7}})
	if !ok || v != (Copy{1, 7}) {
		t.Fatalf("victim = %v ok=%v, want {1 7}", v, ok)
	}
	// Restoring resets the count.
	l.OnEvict(1, 7)
	l.OnStore(1, 7, 4)
	if got := l.Score(1, 7); got != 0 {
		t.Fatalf("score after restore = %v, want 0", got)
	}
}

func TestCostAwareUsesOracle(t *testing.T) {
	costs := map[Copy]float64{{0, 0}: 3, {1, 0}: 1, {2, 0}: 2}
	c := NewCostAware(func(node, chunk int) float64 { return costs[Copy{node, chunk}] })
	v, ok := SelectVictim(c, []Copy{{0, 0}, {1, 0}, {2, 0}})
	if !ok || v != (Copy{1, 0}) {
		t.Fatalf("victim = %v ok=%v, want {1 0}", v, ok)
	}
	if got := NewCostAware(nil).Score(5, 5); got != 0 {
		t.Fatalf("nil oracle score = %v, want 0", got)
	}
}

func TestSelectVictimDeterministicTieBreak(t *testing.T) {
	c := NewCostAware(func(node, chunk int) float64 { return 1 })
	cands := []Copy{{3, 2}, {1, 5}, {1, 4}, {2, 0}}
	v, ok := SelectVictim(c, cands)
	if !ok || v != (Copy{1, 4}) {
		t.Fatalf("tie-break victim = %v ok=%v, want {1 4}", v, ok)
	}
	if _, ok := SelectVictim(c, nil); ok {
		t.Fatal("empty candidates: want ok=false")
	}
}

func TestStrategyNames(t *testing.T) {
	if NewLRU().Name() != "lru" || NewLFU().Name() != "lfu" || NewCostAware(nil).Name() != "cost" {
		t.Fatal("strategy names drifted")
	}
}
