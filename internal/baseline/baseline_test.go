package baseline

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

// topoModel returns an empty-state cost model of g, the baselines'
// topology-only metric oracle.
func topoModel(t *testing.T, g *graph.Graph) *costmodel.Model {
	t.Helper()
	m, err := costmodel.New(g, nil, cache.NewState(g.NumNodes(), 1), costmodel.Options{FairnessWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// placeChunks runs PlaceChunksModelCtx on the sequential path over a fresh
// model of g.
func placeChunks(t *testing.T, g *graph.Graph, producer, chunks int, st *cache.State, alg Algorithm, lambda float64) (*Placement, error) {
	t.Helper()
	return PlaceChunksModelCtx(context.Background(), topoModel(t, g), producer, chunks, st, alg, lambda, nil)
}

func TestAlgorithmString(t *testing.T) {
	if HopCount.String() != "Hopc" || Contention.String() != "Cont" {
		t.Errorf("String() = %q/%q, want Hopc/Cont", HopCount, Contention)
	}
	if got := Algorithm(99).String(); got != "Algorithm(99)" {
		t.Errorf("unknown algorithm String() = %q", got)
	}
}

func TestSelectNodesUnknownAlgorithm(t *testing.T) {
	g := graph.NewGrid(2, 2)
	if _, err := SelectNodesCtx(context.Background(), g, 0, Algorithm(0), 1, nil); !errors.Is(err, ErrBadAlgorithm) {
		t.Errorf("err = %v, want ErrBadAlgorithm", err)
	}
}

func TestSelectNodesNeverPicksProducer(t *testing.T) {
	g := graph.NewGrid(5, 5)
	for _, alg := range []Algorithm{HopCount, Contention} {
		sel, err := SelectNodesCtx(context.Background(), g, 12, alg, DefaultLambda, nil)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for _, v := range sel {
			if v == 12 {
				t.Errorf("%v selected the producer", alg)
			}
		}
	}
}

func TestSelectNodesImprovesOnLongLine(t *testing.T) {
	// Long line with producer at one end: caching far from the producer
	// clearly pays off for hop count.
	n := 15
	g := graph.New(n)
	for i := 1; i < n; i++ {
		mustEdge(t, g, i-1, i)
	}
	sel, err := SelectNodesCtx(context.Background(), g, 0, HopCount, DefaultLambda, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("no nodes selected on a 15-node line")
	}
	// The selection must include a node in the far half.
	far := false
	for _, v := range sel {
		if v >= n/2 {
			far = true
		}
	}
	if !far {
		t.Errorf("selection %v has no node in the far half", sel)
	}
}

func TestSelectNodesHighLambdaSelectsNothing(t *testing.T) {
	g := graph.NewGrid(3, 3)
	sel, err := SelectNodesCtx(context.Background(), g, 4, HopCount, 1e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 0 {
		t.Errorf("λ=1e9 selected %v, want none (producer serves all)", sel)
	}
}

func TestSelectNodesNoProducerForcesOneMedian(t *testing.T) {
	g := graph.NewGrid(3, 3)
	sel, err := SelectNodesCtx(context.Background(), g, -1, HopCount, 1e9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0] != 4 {
		t.Errorf("subgraph round selection = %v, want [4] (grid center)", sel)
	}
}

func TestSelectNodesDeterministicSameSetEachCall(t *testing.T) {
	// The baselines are topology-only: every invocation must return the
	// identical set (this is precisely why they are unfair).
	g := graph.NewGrid(4, 4)
	for _, alg := range []Algorithm{HopCount, Contention} {
		a, err := SelectNodesCtx(context.Background(), g, 5, alg, DefaultLambda, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SelectNodesCtx(context.Background(), g, 5, alg, DefaultLambda, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%v: nondeterministic selection %v vs %v", alg, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: nondeterministic selection %v vs %v", alg, a, b)
			}
		}
	}
}

func TestPlaceChunksValidation(t *testing.T) {
	g := graph.NewGrid(2, 2)
	st := cache.NewState(4, 5)
	if _, err := placeChunks(t, g, -1, 1, st, HopCount, 1); err == nil {
		t.Error("bad producer: want error")
	}
	if _, err := placeChunks(t, g, 0, 0, st, HopCount, 1); err == nil {
		t.Error("zero chunks: want error")
	}
	if _, err := placeChunks(t, g, 0, 1, cache.NewState(3, 5), HopCount, 1); err == nil {
		t.Error("state mismatch: want error")
	}
	if _, err := placeChunks(t, g, 0, 1, nil, HopCount, 1); err == nil {
		t.Error("nil state: want error")
	}
}

func TestPlaceChunksReplicatesOnSameSetUntilFull(t *testing.T) {
	g := graph.NewGrid(6, 6)
	st := cache.NewState(36, 5)
	p, err := placeChunks(t, g, 9, 5, st, Contention, DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1 (capacity 5 holds all 5 chunks)", len(p.Rounds))
	}
	set := p.Rounds[0].Nodes
	if len(set) == 0 {
		t.Fatal("empty first-round set")
	}
	// Every chunk must be held by exactly the round-1 set.
	for n := 0; n < 5; n++ {
		if len(p.Holders[n]) != len(set) {
			t.Errorf("chunk %d holders = %v, want the full set %v", n, p.Holders[n], set)
		}
	}
	for _, v := range set {
		if st.Stored(v) != 5 {
			t.Errorf("set node %d stored %d, want 5 (full)", v, st.Stored(v))
		}
	}
	if len(p.Uncached) != 0 {
		t.Errorf("Uncached = %v, want none", p.Uncached)
	}
}

func TestPlaceChunksMovesToSecondSetWhenFull(t *testing.T) {
	// Capacity 5, 6 chunks: the 6th chunk must trigger a second round on
	// the unchosen remainder — the discontinuity the paper shows in
	// Fig. 8 when chunks go from 5 to 6.
	g := graph.NewGrid(4, 4)
	st := cache.NewState(16, 5)
	p, err := placeChunks(t, g, 5, 6, st, HopCount, DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(p.Rounds))
	}
	if p.Rounds[1].FirstChunk != 5 {
		t.Errorf("second round starts at chunk %d, want 5", p.Rounds[1].FirstChunk)
	}
	// Second-round nodes must be disjoint from the first.
	first := map[int]bool{}
	for _, v := range p.Rounds[0].Nodes {
		first[v] = true
	}
	for _, v := range p.Rounds[1].Nodes {
		if first[v] {
			t.Errorf("node %d reused across rounds", v)
		}
		if v == 5 {
			t.Error("producer selected in round 2")
		}
	}
	if len(p.Holders[5]) == 0 {
		t.Error("chunk 5 has no holders despite available nodes")
	}
}

func TestPlaceChunksExhaustsAllStorage(t *testing.T) {
	// 2x2 grid, capacity 1, producer 0: 3 cacheable nodes, 5 chunks ->
	// some chunks end up uncached.
	g := graph.NewGrid(2, 2)
	st := cache.NewState(4, 1)
	p, err := placeChunks(t, g, 0, 5, st, HopCount, DefaultLambda)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, hs := range p.Holders {
		cached += len(hs)
	}
	if cached != 3 {
		t.Errorf("total copies = %d, want 3 (all storage consumed)", cached)
	}
	if len(p.Uncached) != 5-countNonEmpty(p.Holders) {
		t.Errorf("Uncached = %v inconsistent with holders %v", p.Uncached, p.Holders)
	}
	if st.Stored(0) != 0 {
		t.Error("producer cached data")
	}
}

// Property: PlaceChunksModelCtx never exceeds capacity, never caches on the
// producer, and every holder list refers to nodes that really store the
// chunk.
func TestPlaceChunksInvariants(t *testing.T) {
	f := func(seed int64, nRaw, qRaw, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(nRaw)%12
		q := 1 + int(qRaw)%8
		capacity := 1 + int(capRaw)%4
		g := randomConnectedGraph(rng, n)
		producer := rng.Intn(n)
		st := cache.NewState(n, capacity)
		alg := HopCount
		if seed%2 == 0 {
			alg = Contention
		}
		p, err := placeChunks(t, g, producer, q, st, alg, DefaultLambda)
		if err != nil {
			return false
		}
		if st.Stored(producer) != 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if st.Stored(i) > st.Capacity(i) {
				return false
			}
		}
		for nChunk, hs := range p.Holders {
			for _, v := range hs {
				if !st.Has(v, nChunk) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func countNonEmpty(hs [][]int) int {
	c := 0
	for _, h := range hs {
		if len(h) > 0 {
			c++
		}
	}
	return c
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

func TestRecommendedLambda(t *testing.T) {
	if got := RecommendedLambda(HopCount, 36); got != 18 {
		t.Errorf("Hopc lambda = %g, want 18", got)
	}
	if got := RecommendedLambda(Contention, 36); got != 9 {
		t.Errorf("Cont lambda = %g, want 9", got)
	}
	if got := RecommendedLambda(Algorithm(0), 36); got != DefaultLambda {
		t.Errorf("unknown algorithm lambda = %g, want default", got)
	}
}

func TestOneMedian(t *testing.T) {
	dist := [][]float64{
		{0, 1, 2},
		{1, 0, 1},
		{2, 1, 0},
	}
	med, err := oneMedian(dist)
	if err != nil {
		t.Fatal(err)
	}
	if med != 1 {
		t.Errorf("oneMedian = %d, want 1", med)
	}
	if _, err := oneMedian(nil); err == nil {
		t.Error("empty matrix: want error")
	}
}
