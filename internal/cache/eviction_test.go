package cache_test

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/demand"
	"repro/internal/graph"
)

// The eviction policies that rank the copies in a cache.State live in the
// demand engine, as one score per (chunk, node) copy. These tests drive
// the engine through its exported API alone: fill a 3×3 grid with copies,
// serve requests, and read the order in which one adaptation pass evicts.
// The pass's CopyBudget is the network's whole capacity, so it evicts
// every copy, lowest score first.

// filled returns an engine under ev with a copy in every cache slot off
// the producer, and those copies in (node, chunk) order. The slots are
// filled by the fair-caching seed and one adaptation pass, which evicts
// the seeded copies and places into every free slot before any request,
// so every copy scores 0 under LRU and LFU.
func filled(t *testing.T, ev demand.Eviction) (*demand.System, []demand.Copy) {
	t.Helper()
	const capacity, chunks = 2, 4
	g := graph.NewGrid(3, 3)
	m, err := costmodel.New(g, nil, cache.NewState(g.NumNodes(), capacity), costmodel.Options{FairnessWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := demand.New(m, 0, chunks, demand.Options{Eviction: ev, CopyBudget: g.NumNodes() * capacity})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SeedCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	evictAll(t, s)
	copies := placed(s)
	if want := (g.NumNodes() - 1) * capacity; len(copies) != want {
		t.Fatalf("filled %v, want %d copies", copies, want)
	}
	return s, copies
}

// placed lists s's copies in (node, chunk) order.
func placed(s *demand.System) []demand.Copy {
	var out []demand.Copy
	for k := 0; k < s.Chunks(); k++ {
		for _, v := range s.Holders(k) {
			out = append(out, demand.Copy{Node: v, Chunk: k})
		}
	}
	slices.SortFunc(out, func(a, b demand.Copy) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Chunk, b.Chunk))
	})
	return out
}

// serve requests c's chunk from c's own node, so copy c serves it.
func serve(t *testing.T, s *demand.System, c demand.Copy) {
	t.Helper()
	if server, hops, err := s.Observe(c.Node, c.Chunk); err != nil || server != c.Node || hops != 0 {
		t.Fatalf("Observe(%d, %d) = server %d, %d hops (%v), want the local copy", c.Node, c.Chunk, server, hops, err)
	}
}

// evictAll runs one adaptation pass and returns what it evicted, in order.
func evictAll(t *testing.T, s *demand.System) []demand.Copy {
	t.Helper()
	rep, err := s.AdaptCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep.Evicted
}

func TestLRUSelectsLeastRecentlyTouched(t *testing.T) {
	s, copies := filled(t, demand.EvictLRU)
	// Serve every copy in reverse (node, chunk) order, then the first one
	// again: it is now the most recently touched, and the others are
	// evicted in the order they were served.
	order := slices.Clone(copies)
	slices.Reverse(order)
	for _, c := range order {
		serve(t, s, c)
	}
	serve(t, s, order[0])
	want := append(slices.Clone(order[1:]), order[0])
	if got := evictAll(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("evicted %v, want %v", got, want)
	}
}

func TestLFUSelectsLeastFrequentlyUsed(t *testing.T) {
	s, copies := filled(t, demand.EvictLFU)
	// Copy i in (node, chunk) order is served len(copies)-i times, so the
	// fewest-served copies, last in that order, go first.
	for i, c := range copies {
		for range len(copies) - i {
			serve(t, s, c)
		}
	}
	want := slices.Clone(copies)
	slices.Reverse(want)
	if got := evictAll(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("evicted %v, want %v", got, want)
	}
	// The pass placed its copies afresh, and a store restarts a copy's
	// count at 0, also where a served copy stood before. With no serve
	// since, the next pass meets a tie and evicts in (node, chunk) order.
	again := placed(s)
	if !slices.ContainsFunc(again, func(c demand.Copy) bool { return slices.Contains(copies, c) }) {
		t.Fatalf("placement %v stores no copy served before", again)
	}
	if got := evictAll(t, s); !reflect.DeepEqual(got, again) {
		t.Fatalf("after the stores: evicted %v, want %v", got, again)
	}
}

func TestCostAwareUsesOracle(t *testing.T) {
	s, copies := filled(t, demand.EvictCost)
	// One node asks only for the two chunks it holds: hot five times, cold
	// once. A copy's cost score is share(k)·w(j)·(second − nearest
	// distance) summed over the requesters j it serves, so hot scores at
	// least 5/6·1 and cold at most 1/6·4, the grid's diameter. No request
	// reaches the other copies: they cost nothing to remove and go first,
	// in (node, chunk) order.
	i := slices.IndexFunc(copies[1:], func(c demand.Copy) bool { return c.Node == copies[0].Node })
	if i < 0 {
		t.Fatalf("filled %v: node %d holds one copy", copies, copies[0].Node)
	}
	hot, cold := copies[0], copies[i+1]
	for range 5 {
		serve(t, s, hot)
	}
	serve(t, s, cold)
	want := slices.DeleteFunc(slices.Clone(copies), func(c demand.Copy) bool { return c == hot || c == cold })
	want = append(want, cold, hot)
	if got := evictAll(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("evicted %v, want %v", got, want)
	}
}

func TestSelectVictimDeterministicTieBreak(t *testing.T) {
	for _, ev := range []demand.Eviction{demand.EvictLRU, demand.EvictLFU} {
		s, copies := filled(t, ev)
		// No request has been served, so every copy scores 0 and the pass
		// evicts in (node, chunk) order, which is not the chunk-major one.
		if slices.IsSortedFunc(copies, func(a, b demand.Copy) int {
			return cmp.Or(cmp.Compare(a.Chunk, b.Chunk), cmp.Compare(a.Node, b.Node))
		}) {
			t.Fatalf("filled %v: (node, chunk) order is also chunk-major", copies)
		}
		if got := evictAll(t, s); !reflect.DeepEqual(got, copies) {
			t.Fatalf("eviction %d: evicted %v, want %v", ev, got, copies)
		}
	}
	// With no copy to pick, a pass short of its CopyBudget evicts nothing.
	m, err := costmodel.New(graph.NewGrid(3, 3), nil, cache.NewState(9, 2), costmodel.Options{FairnessWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := demand.New(m, 0, 4, demand.Options{CopyBudget: 19})
	if err != nil {
		t.Fatal(err)
	}
	if got := evictAll(t, s); len(got) != 0 {
		t.Fatalf("empty system evicted %v", got)
	}
}
