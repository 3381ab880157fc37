package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/graph"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultOptions()); !errors.Is(err, ErrBadTopology) {
		t.Errorf("nil graph: err = %v, want ErrBadTopology", err)
	}
	if _, err := New(graph.New(1), DefaultOptions()); !errors.Is(err, ErrBadTopology) {
		t.Errorf("1 node: err = %v, want ErrBadTopology", err)
	}
	disc := graph.New(4)
	mustEdge(t, disc, 0, 1)
	if _, err := New(disc, DefaultOptions()); !errors.Is(err, ErrBadTopology) {
		t.Errorf("disconnected: err = %v, want ErrBadTopology", err)
	}
	opts := DefaultOptions()
	opts.FairnessWeight = -1
	if _, err := New(graph.NewGrid(2, 2), opts); err == nil {
		t.Error("negative fairness weight: want error")
	}
	if _, err := New(graph.NewGrid(2, 2), DefaultOptions()); err != nil {
		t.Errorf("valid topology: %v", err)
	}
}

func TestPlaceValidation(t *testing.T) {
	g := graph.NewGrid(3, 3)
	s, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(9, 5)
	if _, err := s.Place(-1, 1, st); !errors.Is(err, ErrBadProducer) {
		t.Errorf("bad producer: err = %v", err)
	}
	if _, err := s.Place(0, 0, st); !errors.Is(err, ErrBadChunks) {
		t.Errorf("zero chunks: err = %v", err)
	}
	if _, err := s.Place(0, 1, cache.NewState(4, 5)); !errors.Is(err, ErrBadState) {
		t.Errorf("state size mismatch: err = %v", err)
	}
	if _, err := s.Place(0, 1, nil); !errors.Is(err, ErrBadState) {
		t.Errorf("nil state: err = %v", err)
	}
}

func TestPlaceSingleChunkGrid(t *testing.T) {
	g := graph.NewGrid(6, 6)
	s, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(36, 5)
	p, err := s.Place(9, 1, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chunks) != 1 {
		t.Fatalf("len(Chunks) = %d, want 1", len(p.Chunks))
	}
	c := p.Chunks[0]
	if len(c.CacheNodes) == 0 {
		t.Fatal("no cache nodes selected on a 6x6 grid")
	}
	for _, i := range c.CacheNodes {
		if i == 9 {
			t.Error("producer selected as cache node")
		}
		if !st.Has(i, 0) {
			t.Errorf("node %d in CacheNodes but state lacks the chunk", i)
		}
	}
	if c.Access <= 0 {
		t.Errorf("Access = %g, want > 0", c.Access)
	}
	if c.Dissemination <= 0 {
		t.Errorf("Dissemination = %g, want > 0", c.Dissemination)
	}
	if c.Fairness != 0 {
		t.Errorf("Fairness = %g, want 0 on first chunk (empty caches)", c.Fairness)
	}
	// Dissemination tree must span cache nodes and producer.
	spanned := map[int]bool{}
	for _, v := range c.Tree.Nodes() {
		spanned[v] = true
	}
	for _, i := range c.CacheNodes {
		if !spanned[i] {
			t.Errorf("cache node %d not on dissemination tree", i)
		}
	}
	if !spanned[9] {
		t.Error("producer not on dissemination tree")
	}
}

func TestPlaceMultiChunkSpreadsLoad(t *testing.T) {
	g := graph.NewGrid(6, 6)
	s, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(36, 5)
	p, err := s.Place(9, 5, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chunks) != 5 {
		t.Fatalf("len(Chunks) = %d, want 5", len(p.Chunks))
	}
	// Fairness must engage after the first chunk: the union of caching
	// nodes should exceed a single chunk's set (load is spread).
	distinct := map[int]bool{}
	maxPerChunk := 0
	for _, c := range p.Chunks {
		if len(c.CacheNodes) > maxPerChunk {
			maxPerChunk = len(c.CacheNodes)
		}
		for _, i := range c.CacheNodes {
			distinct[i] = true
		}
	}
	if len(distinct) <= maxPerChunk {
		t.Errorf("distinct caching nodes %d <= max per-chunk set %d; fairness feedback not spreading load", len(distinct), maxPerChunk)
	}
	// Capacity respected.
	for i := 0; i < 36; i++ {
		if st.Stored(i) > st.Capacity(i) {
			t.Errorf("node %d over capacity: %d > %d", i, st.Stored(i), st.Capacity(i))
		}
	}
	if st.Stored(9) != 0 {
		t.Errorf("producer cached %d chunks, want 0", st.Stored(9))
	}
}

func TestPlaceNeverExceedsCapacityUnderPressure(t *testing.T) {
	// Tiny caches force heavy reuse pressure; fairness must steer away
	// from full nodes rather than erroring.
	g := graph.NewGrid(4, 4)
	s, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(16, 2)
	p, err := s.Place(5, 6, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if st.Stored(i) > 2 {
			t.Errorf("node %d stored %d > capacity 2", i, st.Stored(i))
		}
	}
	if got := len(p.Chunks); got != 6 {
		t.Errorf("placed %d chunks, want 6", got)
	}
}

func TestPlaceObjectiveAccounting(t *testing.T) {
	g := graph.NewGrid(4, 4)
	s, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(16, 5)
	p, err := s.Place(0, 3, st)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range p.Chunks {
		if c.Total() != c.Fairness+c.Access+c.Dissemination {
			t.Errorf("chunk %d Total() inconsistent", c.Chunk)
		}
		sum += c.Total()
	}
	if p.Objective() != sum {
		t.Errorf("Objective() = %g, want %g", p.Objective(), sum)
	}
	cn := p.CacheNodes()
	if len(cn) != 3 {
		t.Fatalf("CacheNodes() length = %d, want 3", len(cn))
	}
	// Returned sets are copies.
	if len(cn[0]) > 0 {
		cn[0][0] = -99
		if p.Chunks[0].CacheNodes[0] == -99 {
			t.Error("CacheNodes() aliases internal storage")
		}
	}
}

func TestPlaceZeroFairnessWeightStillRespectsCapacity(t *testing.T) {
	g := graph.NewGrid(4, 4)
	opts := DefaultOptions()
	opts.FairnessWeight = 0 // ablation: contention-only objective
	s, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(16, 1)
	if _, err := s.Place(0, 3, st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if st.Stored(i) > 1 {
			t.Errorf("node %d over capacity with zero fairness weight", i)
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	g := graph.NewGrid(5, 5)
	run := func() *Placement {
		s, err := New(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Place(12, 4, cache.NewState(25, 5))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(), run()
	for n := range a.Chunks {
		ca, cb := a.Chunks[n].CacheNodes, b.Chunks[n].CacheNodes
		if len(ca) != len(cb) {
			t.Fatalf("chunk %d: nondeterministic cache sets %v vs %v", n, ca, cb)
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("chunk %d: nondeterministic cache sets %v vs %v", n, ca, cb)
			}
		}
	}
}

// Property: on random connected topologies, placements are feasible —
// capacity respected, producer never caches, every chunk's holders are
// real nodes, dissemination trees span holders + producer.
func TestPlaceFeasibilityProperty(t *testing.T) {
	f := func(seed int64, nRaw, qRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(nRaw)%12
		q := 1 + int(qRaw)%4
		g := randomConnectedGraph(rng, n)
		producer := rng.Intn(n)
		s, err := New(g, DefaultOptions())
		if err != nil {
			return false
		}
		st := cache.NewState(n, 3)
		p, err := s.Place(producer, q, st)
		if err != nil {
			return false
		}
		for _, c := range p.Chunks {
			for _, i := range c.CacheNodes {
				if i < 0 || i >= n || i == producer {
					return false
				}
			}
			if len(c.CacheNodes) > 0 {
				onTree := map[int]bool{}
				for _, v := range c.Tree.Nodes() {
					onTree[v] = true
				}
				if !onTree[producer] {
					return false
				}
				for _, i := range c.CacheNodes {
					if !onTree[i] {
						return false
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			if st.Stored(i) > st.Capacity(i) {
				return false
			}
		}
		return st.Stored(producer) == 0
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func mustEdge(t *testing.T, g *graph.Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

func randomConnectedGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < rng.Intn(n+1); i++ {
		_ = g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestPlaceOneArbitraryChunkID(t *testing.T) {
	g := graph.NewGrid(4, 4)
	s, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(16, 5)
	m, err := costmodel.New(g, s.PathCache(), st, s.modelOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := s.PlaceOneModelCtx(ctx, 5, 42, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunk != 42 {
		t.Errorf("Chunk = %d, want 42", res.Chunk)
	}
	for _, v := range res.CacheNodes {
		if !st.Has(v, 42) {
			t.Errorf("node %d missing chunk 42", v)
		}
	}
	if _, err := s.PlaceOneModelCtx(ctx, -1, 0, m); err == nil {
		t.Error("bad producer: want error")
	}
	if _, err := s.PlaceOneModelCtx(ctx, 5, 0, nil); !errors.Is(err, ErrBadState) {
		t.Errorf("nil model: err = %v, want ErrBadState", err)
	}
}

func TestGreedyStrategyInCore(t *testing.T) {
	g := graph.NewGrid(5, 5)
	opts := DefaultOptions()
	opts.Strategy = Greedy
	s, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Place(12, 3, cache.NewState(25, 5))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range p.Chunks {
		total += len(c.CacheNodes)
	}
	if total == 0 {
		t.Error("greedy strategy cached nothing")
	}
}

func TestImproveSteinerNeverRaisesDissemination(t *testing.T) {
	g := graph.NewGrid(6, 6)
	plain, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	optsI := DefaultOptions()
	optsI.ImproveSteiner = true
	improved, err := New(g, optsI)
	if err != nil {
		t.Fatal(err)
	}
	pPlain, err := plain.Place(9, 5, cache.NewState(36, 5))
	if err != nil {
		t.Fatal(err)
	}
	pImproved, err := improved.Place(9, 5, cache.NewState(36, 5))
	if err != nil {
		t.Fatal(err)
	}
	for n := range pPlain.Chunks {
		if pImproved.Chunks[n].Dissemination > pPlain.Chunks[n].Dissemination+1e-9 {
			t.Errorf("chunk %d: improvement raised dissemination %g -> %g",
				n, pPlain.Chunks[n].Dissemination, pImproved.Chunks[n].Dissemination)
		}
	}
}
