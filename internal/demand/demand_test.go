package demand

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/sim"
)

// newModel returns an empty cost model over g with uniform capacity, at
// the paper's weights.
func newModel(t testing.TB, g *graph.Graph, capacity int) *costmodel.Model {
	t.Helper()
	m, err := costmodel.New(g, nil, cache.NewState(g.NumNodes(), capacity), costmodel.Options{FairnessWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrackerWindowAndShares(t *testing.T) {
	tr := NewTracker(4, 3, 2, 10, 0.5)
	sh := tr.Shares()
	for k, s := range sh {
		if math.Abs(s-0.25) > 1e-12 {
			t.Fatalf("uniform prior: share[%d] = %v", k, s)
		}
	}
	for i := 0; i < 30; i++ {
		tr.Observe(i%3, 0)
	}
	sh = tr.Shares()
	if sh[0] < 0.9 {
		t.Fatalf("all demand on chunk 0: share = %v", sh[0])
	}
	if tr.Total() != 30 {
		t.Fatalf("Total = %d", tr.Total())
	}
	// The window holds at most 2 buckets × 10 requests.
	if w := tr.WindowCount(0); w > 20 {
		t.Fatalf("window count %d exceeds window size", w)
	}
	nw := tr.NodeWeights()
	sum := 0.0
	for _, w := range nw {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("node weights sum %v", sum)
	}
}

func TestTrackerShiftsUnderDrift(t *testing.T) {
	tr := NewTracker(2, 1, 4, 5, 0.5)
	for i := 0; i < 40; i++ {
		tr.Observe(0, 0)
	}
	for i := 0; i < 40; i++ {
		tr.Observe(0, 1)
	}
	sh := tr.Shares()
	if sh[1] < sh[0] {
		t.Fatalf("demand moved to chunk 1 but shares = %v", sh)
	}
}

func newTestSystem(t *testing.T, capacity int, opts Options) *System {
	t.Helper()
	s, err := New(newModel(t, graph.NewGrid(5, 5), capacity), 0, 12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SeedCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSeedMatchesStateAndHolders(t *testing.T) {
	s := newTestSystem(t, 3, Options{})
	total := 0
	for k := 0; k < s.Chunks(); k++ {
		hs := s.Holders(k)
		total += len(hs)
		for _, v := range hs {
			if !s.State().Has(v, k) {
				t.Fatalf("holder list says node %d has chunk %d, state disagrees", v, k)
			}
			if v == s.Producer() {
				t.Fatalf("producer holds chunk %d", k)
			}
		}
	}
	if total != s.State().TotalStored() {
		t.Fatalf("holder lists track %d copies, state stores %d", total, s.State().TotalStored())
	}
	if err := s.SeedCtx(context.Background()); err == nil {
		t.Fatal("second seed: want error")
	}
}

func TestObserveAccounting(t *testing.T) {
	s := newTestSystem(t, 3, Options{HitRadius: 2})
	// Request every chunk from every non-producer node once.
	n := s.State().NumNodes()
	for j := 1; j < n; j++ {
		for k := 0; k < s.Chunks(); k++ {
			server, hops, err := s.Observe(j, k)
			if err != nil {
				t.Fatal(err)
			}
			if hops < 0 {
				t.Fatalf("negative hops %d", hops)
			}
			if server != s.Producer() && !s.State().Has(server, k) {
				t.Fatalf("served chunk %d from node %d which does not hold it", k, server)
			}
		}
	}
	st := s.Stats()
	want := int64((n - 1) * s.Chunks())
	if st.Requests != want {
		t.Fatalf("Requests = %d, want %d", st.Requests, want)
	}
	if st.CacheHits+st.ProducerServed != st.Requests {
		t.Fatalf("hit accounting leaks: %+v", st)
	}
	if st.LocalHits > st.CacheHits {
		t.Fatalf("local hits exceed cache hits: %+v", st)
	}
	if st.MeanCost() <= 0 {
		t.Fatalf("mean cost = %v, want > 0", st.MeanCost())
	}
	if p := s.P99Cost(); p < s.PercentileCost(0.5) {
		t.Fatalf("p99 %v below median %v", p, s.PercentileCost(0.5))
	}
	if _, _, err := s.Observe(-1, 0); err == nil {
		t.Fatal("bad node: want error")
	}
	if _, _, err := s.Observe(1, s.Chunks()); err == nil {
		t.Fatal("bad chunk: want error")
	}
}

func TestObserveServesNearestCopy(t *testing.T) {
	g := graph.NewLine(6)
	s, err := New(newModel(t, g, 1), 0, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build the placement: chunk 0 on node 4 only.
	if err := s.Model().Commit(4, 0); err != nil {
		t.Fatal(err)
	}
	s.holdersAdd(0, 4)
	server, hops, err := s.Observe(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if server != 4 || hops != 1 {
		t.Fatalf("served from %d at %d hops, want holder 4 at 1", server, hops)
	}
	// Node 1 is 1 hop from the producer, 3 from the holder.
	server, hops, err = s.Observe(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if server != 0 || hops != 1 {
		t.Fatalf("served from %d at %d hops, want producer 0 at 1", server, hops)
	}
}

func TestAdaptConcentratesOnHotChunk(t *testing.T) {
	s := newTestSystem(t, 3, Options{TopDelta: 4, CopyBudget: 8})
	tr, err := sim.NewTrace(sim.TraceSpec{Nodes: 25, Chunks: 12, Seed: 11, ZipfS: 1.2, Exclude: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		r := tr.Next()
		if _, _, err := s.Observe(r.Node, r.Chunk); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	rep, err := s.AdaptCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TopChunks) != 4 {
		t.Fatalf("TopChunks = %v, want 4 entries", rep.TopChunks)
	}
	after := s.Stats()
	if after.Adaptations != before.Adaptations+1 {
		t.Fatalf("Adaptations = %d", after.Adaptations)
	}
	if len(rep.Placed) == 0 {
		t.Fatal("adaptation placed nothing on a hot skewed trace")
	}
	// The hottest chunk should have gained copies relative to the static
	// seed (the seed gives every chunk a similar footprint).
	shares := s.Tracker().Shares()
	hot := 0
	for k, sh := range shares {
		if sh > shares[hot] {
			hot = k
		}
	}
	found := false
	for _, k := range rep.TopChunks {
		if k == hot {
			found = true
		}
	}
	if !found {
		t.Fatalf("hottest chunk %d not in TopChunks %v", hot, rep.TopChunks)
	}
	// Capacity never violated, holder lists in sync.
	for v := 0; v < s.State().NumNodes(); v++ {
		if s.State().Free(v) < 0 {
			t.Fatalf("node %d over capacity", v)
		}
	}
	checkHoldersSync(t, s)
}

func TestAdaptDeterministic(t *testing.T) {
	run := func(workers int) ([][]int, Stats) {
		g := graph.NewGrid(5, 5)
		s, err := New(newModel(t, g, 3), 0, 12, Options{Workers: workers, TopDelta: 4, CopyBudget: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SeedCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		tr, err := sim.NewTrace(sim.TraceSpec{Nodes: 25, Chunks: 12, Seed: 5, ZipfS: 1.0, Exclude: 0})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			r := tr.Next()
			if _, _, err := s.Observe(r.Node, r.Chunk); err != nil {
				t.Fatal(err)
			}
			if i%1000 == 999 {
				if _, err := s.AdaptCtx(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s.Placement(), s.Stats()
	}
	p1, st1 := run(1)
	p4, st4 := run(4)
	if st1 != st4 {
		t.Fatalf("stats diverge across worker counts:\n1: %+v\n4: %+v", st1, st4)
	}
	for k := range p1 {
		if len(p1[k]) != len(p4[k]) {
			t.Fatalf("chunk %d holders diverge: %v vs %v", k, p1[k], p4[k])
		}
		for i := range p1[k] {
			if p1[k][i] != p4[k][i] {
				t.Fatalf("chunk %d holders diverge: %v vs %v", k, p1[k], p4[k])
			}
		}
	}
}

func TestAdaptWithLRUAndLFU(t *testing.T) {
	for _, strat := range []cache.EvictionStrategy{cache.NewLRU(), cache.NewLFU()} {
		// CopyBudget near the network's total capacity forces the pass to
		// pressure-evict regardless of how many slots seeding left free.
		s := newTestSystem(t, 2, Options{Eviction: strat, TopDelta: 3, CopyBudget: 45})
		tr, err := sim.NewTrace(sim.TraceSpec{Nodes: 25, Chunks: 12, Seed: 3, Exclude: 0})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			r := tr.Next()
			if _, _, err := s.Observe(r.Node, r.Chunk); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.AdaptCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if len(rep.Evicted) == 0 {
			t.Fatalf("%s: expected pressure evictions on a tight cache", strat.Name())
		}
		checkHoldersSync(t, s)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	g := graph.NewGrid(3, 3)
	if _, err := New(nil, 0, 4, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil model: err = %v, want ErrBadInput", err)
	}
	if _, err := New(newModel(t, graph.NewLine(1), 5), 0, 4, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("trivial topology: err = %v, want ErrBadInput", err)
	}
	if _, err := New(newModel(t, g, 5), 9, 4, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("producer out of range: err = %v, want ErrBadInput", err)
	}
	if _, err := New(newModel(t, g, 5), 0, 0, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero chunks: err = %v, want ErrBadInput", err)
	}
	split := graph.New(4)
	_ = split.AddEdge(0, 1)
	_ = split.AddEdge(2, 3)
	if _, err := New(newModel(t, split, 5), 0, 4, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("disconnected topology: err = %v, want ErrBadInput", err)
	}
	m := newModel(t, g, 5)
	if err := m.Commit(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, 0, 4, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("non-empty model state: err = %v, want ErrBadInput", err)
	}
}

// checkHoldersSync asserts the holder lists exactly mirror the state.
func checkHoldersSync(t *testing.T, s *System) {
	t.Helper()
	for k := 0; k < s.Chunks(); k++ {
		want := s.State().Holders(k)
		got := s.Holders(k)
		if len(want) != len(got) {
			t.Fatalf("chunk %d: holders %v, state %v", k, got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("chunk %d: holders %v, state %v", k, got, want)
			}
		}
	}
}
