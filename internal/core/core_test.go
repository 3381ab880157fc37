package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/graph"
)

// newModel returns a cold cost model over g and st at the paper's
// weights (fairness 1, battery ignored).
func newModel(t *testing.T, g *graph.Graph, st *cache.State) *costmodel.Model {
	t.Helper()
	m, err := costmodel.New(g, nil, st, costmodel.Options{FairnessWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// place runs PlaceCtx on the sequential path over a fresh model.
func place(t *testing.T, g *graph.Graph, st *cache.State, producer, chunks int, opts Options) *Placement {
	t.Helper()
	p, err := PlaceCtx(context.Background(), newModel(t, g, st), producer, chunks, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlaceValidation(t *testing.T) {
	g := graph.NewGrid(3, 3)
	m := newModel(t, g, cache.NewState(9, 5))
	ctx := context.Background()
	if _, err := PlaceCtx(ctx, m, -1, 1, DefaultOptions(), nil); !errors.Is(err, ErrBadProducer) {
		t.Errorf("bad producer: err = %v", err)
	}
	if _, err := PlaceCtx(ctx, m, 0, 0, DefaultOptions(), nil); !errors.Is(err, ErrBadChunks) {
		t.Errorf("zero chunks: err = %v", err)
	}
	// The state is the model's own, so its size is checked where the
	// model is built.
	if _, err := costmodel.New(g, nil, cache.NewState(4, 5), costmodel.Options{}); !errors.Is(err, costmodel.ErrMismatch) {
		t.Errorf("state size mismatch: err = %v", err)
	}
	if _, err := costmodel.New(g, nil, nil, costmodel.Options{}); !errors.Is(err, costmodel.ErrMismatch) {
		t.Errorf("nil state: err = %v", err)
	}
}

func TestPlaceSingleChunkGrid(t *testing.T) {
	g := graph.NewGrid(6, 6)
	st := cache.NewState(36, 5)
	p := place(t, g, st, 9, 1, DefaultOptions())
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
	st := cache.NewState(36, 5)
	p := place(t, g, st, 9, 5, DefaultOptions())
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
	st := cache.NewState(16, 2)
	p := place(t, g, st, 5, 6, DefaultOptions())
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
	st := cache.NewState(16, 5)
	p := place(t, g, st, 0, 3, DefaultOptions())
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
	st := cache.NewState(16, 1)
	// Ablation: contention-only objective.
	m, err := costmodel.New(g, nil, st, costmodel.Options{FairnessWeight: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceCtx(context.Background(), m, 0, 3, DefaultOptions(), nil); err != nil {
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
		return place(t, g, cache.NewState(25, 5), 12, 4, DefaultOptions())
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
		st := cache.NewState(n, 3)
		m, err := costmodel.New(g, nil, st, costmodel.Options{FairnessWeight: 1})
		if err != nil {
			return false
		}
		p, err := PlaceCtx(context.Background(), m, producer, q, DefaultOptions(), nil)
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
	st := cache.NewState(16, 5)
	m := newModel(t, g, st)
	ctx := context.Background()
	res, err := PlaceOneCtx(ctx, m, 5, 42, DefaultOptions(), nil)
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
	if _, err := PlaceOneCtx(ctx, m, -1, 0, DefaultOptions(), nil); !errors.Is(err, ErrBadProducer) {
		t.Errorf("bad producer: err = %v, want ErrBadProducer", err)
	}
}

func TestGreedyStrategyInCore(t *testing.T) {
	g := graph.NewGrid(5, 5)
	opts := DefaultOptions()
	opts.Strategy = Greedy
	p := place(t, g, cache.NewState(25, 5), 12, 3, opts)
	total := 0
	for _, c := range p.Chunks {
		total += len(c.CacheNodes)
	}
	if total == 0 {
		t.Error("greedy strategy cached nothing")
	}
}

// TestImproveSteinerNeverRaisesDissemination pins what key-path local
// search buys: the same holders (it runs after the chunk's ConFL decision
// and commits nothing else), a tree per chunk no costlier than the MST
// 2-approximation, and a strictly cheaper one on at least one chunk of
// this run.
func TestImproveSteinerNeverRaisesDissemination(t *testing.T) {
	g := graph.NewGrid(6, 6)
	optsI := DefaultOptions()
	optsI.ImproveSteiner = true
	pPlain := place(t, g, cache.NewState(36, 5), 9, 5, DefaultOptions())
	pImproved := place(t, g, cache.NewState(36, 5), 9, 5, optsI)
	improved := 0
	for n := range pPlain.Chunks {
		plain, better := pPlain.Chunks[n], pImproved.Chunks[n]
		if !slices.Equal(plain.CacheNodes, better.CacheNodes) {
			t.Errorf("chunk %d: holders %v, want the plain solve's %v", n, better.CacheNodes, plain.CacheNodes)
		}
		if better.Dissemination > plain.Dissemination+1e-9 {
			t.Errorf("chunk %d: improvement raised dissemination %g -> %g", n, plain.Dissemination, better.Dissemination)
		}
		if better.Dissemination < plain.Dissemination-1e-9 {
			improved++
		}
	}
	if improved == 0 {
		t.Error("local search improved no chunk's tree")
	}
}
