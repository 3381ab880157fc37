package exact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/steiner"
)

// newModel returns a cold cost model over g and st at the given fairness
// weight.
func newModel(t *testing.T, g *graph.Graph, st *cache.State, fairness float64) *costmodel.Model {
	t.Helper()
	m, err := costmodel.New(g, nil, st, costmodel.Options{FairnessWeight: fairness})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// solveChunk runs one chunk's search under st without committing it, the
// step PlaceChunksCtx repeats per chunk.
func solveChunk(t *testing.T, g *graph.Graph, st *cache.State, producer int, fairness float64, opts Options) *Solution {
	t.Helper()
	sol, err := solveChunkModel(context.Background(), newModel(t, g, st, fairness), producer, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSolveChunkValidation(t *testing.T) {
	g := graph.NewGrid(2, 2)
	st := cache.NewState(4, 5)
	// The graph/state pairing is checked where the model is built.
	if _, err := costmodel.New(nil, nil, st, costmodel.Options{}); !errors.Is(err, costmodel.ErrMismatch) {
		t.Errorf("nil graph: err = %v, want costmodel.ErrMismatch", err)
	}
	if _, err := costmodel.New(g, nil, cache.NewState(3, 5), costmodel.Options{}); !errors.Is(err, costmodel.ErrMismatch) {
		t.Errorf("state mismatch: err = %v, want costmodel.ErrMismatch", err)
	}
	m := newModel(t, g, st, 1)
	ctx := context.Background()
	if _, err := PlaceChunksCtx(ctx, m, 9, 1, Options{}, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad producer: err = %v, want ErrBadInput", err)
	}
	if _, err := PlaceChunksCtx(ctx, m, 0, 0, Options{}, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero chunks: err = %v, want ErrBadInput", err)
	}
}

// naiveOptimal enumerates every subset of eligible nodes and returns the
// true optimum, as an oracle for the branch-and-bound.
func naiveOptimal(t *testing.T, g *graph.Graph, st *cache.State, producer int, weight float64) float64 {
	t.Helper()
	n := g.NumNodes()
	conn := contention.ComputeCosts(g, st).Rows()
	edge := contention.EdgeCostFunc(g, st)
	var eligible []int
	for i := 0; i < n; i++ {
		if i != producer && st.Free(i) > 0 {
			eligible = append(eligible, i)
		}
	}
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(eligible); mask++ {
		var set []int
		for b, v := range eligible {
			if mask&(1<<b) != 0 {
				set = append(set, v)
			}
		}
		fair := 0.0
		for _, i := range set {
			fc := st.FairnessCost(i)
			if math.IsInf(fc, 1) {
				fair = math.Inf(1)
				break
			}
			fair += weight * fc
		}
		if math.IsInf(fair, 1) {
			continue
		}
		access := 0.0
		for j := 0; j < n; j++ {
			if j == producer {
				continue
			}
			bestC := conn[producer][j]
			for _, i := range set {
				if c := conn[i][j]; c < bestC {
					bestC = c
				}
			}
			access += bestC
		}
		stCost := 0.0
		if len(set) > 0 {
			var err error
			stCost, err = steiner.ExactCost(g, edge, append([]int{producer}, set...))
			if err != nil {
				t.Fatalf("oracle steiner: %v", err)
			}
		}
		if cost := fair + access + stCost; cost < best {
			best = cost
		}
	}
	return best
}

func TestSolveChunkMatchesNaiveEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(5) // up to 8 nodes: 2^7 subsets for the oracle
		g := randomConnectedGraph(rng, n)
		st := cache.NewState(n, 3)
		for k := 0; k < n/2; k++ {
			_ = st.Store(rng.Intn(n), rng.Intn(3))
		}
		producer := rng.Intn(n)

		want := naiveOptimal(t, g, st, producer, 1)
		sol := solveChunk(t, g, st, producer, 1, Options{})
		if !sol.Optimal {
			t.Fatalf("trial %d: search did not complete", trial)
		}
		if math.Abs(sol.Total()-want) > 1e-6 {
			t.Errorf("trial %d: exact search = %g, oracle = %g (set %v)", trial, sol.Total(), want, sol.Facilities)
		}
	}
}

func TestSolveChunkProducerNeverSelected(t *testing.T) {
	g := graph.NewGrid(3, 3)
	st := cache.NewState(9, 5)
	sol := solveChunk(t, g, st, 4, 1, Options{})
	for _, f := range sol.Facilities {
		if f == 4 {
			t.Error("producer in optimal caching set")
		}
	}
}

func TestSolveChunkRespectsBudget(t *testing.T) {
	g := graph.NewGrid(4, 4)
	st := cache.NewState(16, 5)
	sol := solveChunk(t, g, st, 0, 1, Options{NodeBudget: 3})
	if sol.Optimal {
		t.Error("budget 3 on 4x4 grid reported Optimal = true")
	}
	if sol.Total() <= 0 || math.IsInf(sol.Total(), 1) {
		t.Errorf("budget-limited Total = %g, want finite positive incumbent", sol.Total())
	}
}

func TestSolveChunkFullNodesExcluded(t *testing.T) {
	g := graph.NewGrid(3, 3)
	st := cache.NewState(9, 1)
	for _, v := range []int{0, 1, 2, 3, 5, 6, 7} {
		if err := st.Store(v, 9); err != nil {
			t.Fatal(err)
		}
	}
	sol := solveChunk(t, g, st, 4, 1, Options{})
	for _, f := range sol.Facilities {
		if f != 8 {
			t.Errorf("full node %d selected", f)
		}
	}
}

func TestPlaceChunksCommitsAndRespectsCapacity(t *testing.T) {
	g := graph.NewGrid(3, 3)
	st := cache.NewState(9, 2)
	p, err := PlaceChunksCtx(context.Background(), newModel(t, g, st, 1), 4, 3, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(p.Chunks))
	}
	for i := 0; i < 9; i++ {
		if st.Stored(i) > 2 {
			t.Errorf("node %d over capacity", i)
		}
	}
	if st.Stored(4) != 0 {
		t.Error("producer cached data")
	}
	if !p.Optimal() {
		t.Error("small instance should be solved to optimality")
	}
	if p.Objective() <= 0 {
		t.Errorf("Objective = %g, want > 0", p.Objective())
	}
	cn := p.CacheNodes()
	for n, hs := range cn {
		for _, v := range hs {
			if !st.Has(v, n) {
				t.Errorf("chunk %d holder %d missing from state", n, v)
			}
		}
	}
}

// TestApproximationRatioBound is the empirical check of Theorem 1: the
// approximation algorithm's per-chunk objective stays within the 6.55
// ratio of the exact optimum on small random instances (the paper observes
// at most 5.6).
func TestApproximationRatioBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	worst := 0.0
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(6)
		g := randomConnectedGraph(rng, n)
		producer := rng.Intn(n)

		appx, err := core.PlaceCtx(context.Background(), newModel(t, g, cache.NewState(n, 5), 1), producer, 1, core.DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d approx: %v", trial, err)
		}
		opt := solveChunk(t, g, cache.NewState(n, 5), producer, 1, Options{})
		if !opt.Optimal {
			t.Fatalf("trial %d: exact search incomplete", trial)
		}
		if opt.Total() == 0 {
			continue
		}
		ratio := appx.Chunks[0].Total() / opt.Total()
		if ratio > worst {
			worst = ratio
		}
		if ratio < 1-1e-9 {
			t.Errorf("trial %d: approximation beat the optimum (%g < %g)", trial, appx.Chunks[0].Total(), opt.Total())
		}
	}
	if worst > 6.55 {
		t.Errorf("worst observed approximation ratio %g exceeds 6.55", worst)
	}
	t.Logf("worst observed approximation ratio: %.3f", worst)
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

func TestSolveChunkWidthCapReportsNotProven(t *testing.T) {
	// 4x4 grid has 15 candidates; a width cap of 2 cannot be exhaustive.
	g := graph.NewGrid(4, 4)
	st := cache.NewState(16, 5)
	sol := solveChunk(t, g, st, 0, 1, Options{MaxSubsetSize: 2})
	if sol.Optimal {
		t.Error("width-capped search claimed proven optimality")
	}
	if len(sol.Facilities) > 2 {
		t.Errorf("facilities %v exceed the width cap", sol.Facilities)
	}
}

func TestSolveChunkZeroFairnessWeight(t *testing.T) {
	g := graph.NewGrid(3, 3)
	st := cache.NewState(9, 5)
	if err := st.Store(8, 7); err != nil { // pre-load a node
		t.Fatal(err)
	}
	sol := solveChunk(t, g, st, 4, 0, Options{})
	if sol.Fairness != 0 {
		t.Errorf("fairness term = %g with weight 0", sol.Fairness)
	}
}
