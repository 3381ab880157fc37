package costmodel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/graph"
	"repro/internal/pool"
)

// topologies returns the three regression shapes the equivalence criteria
// name: grid, random and clustered.
func topologies(t testing.TB) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid":      gridGraph(t, 6, 6),
		"random":    randomGraph(t, 40, 30, 7),
		"clustered": clusteredGraph(t, 4, 9, 11),
	}
}

// TestNewValidation: the model is where a solve's topology, cache state
// and weights meet, so it is the one place their pairing and the weights'
// signs are checked.
func TestNewValidation(t *testing.T) {
	g := graph.NewGrid(2, 2)
	st := cache.NewState(4, 1)
	if _, err := New(nil, nil, st, Options{}); !errors.Is(err, ErrMismatch) {
		t.Errorf("nil graph: err = %v, want ErrMismatch", err)
	}
	if _, err := New(g, nil, cache.NewState(3, 1), Options{}); !errors.Is(err, ErrMismatch) {
		t.Errorf("state size mismatch: err = %v, want ErrMismatch", err)
	}
	if _, err := New(g, nil, st, Options{FairnessWeight: -1}); err == nil {
		t.Error("negative fairness weight: want error")
	}
	if _, err := New(g, nil, st, Options{FairnessWeight: 1, BatteryWeight: -1}); err == nil {
		t.Error("negative battery weight: want error")
	}
	if _, err := New(g, nil, st, Options{FairnessWeight: 1}); err != nil {
		t.Errorf("valid model: %v", err)
	}
}

// TestIncrementalMatchesFullRecompute drives randomized commit/evict
// batches through the model and verifies after every refresh that the
// costs are byte-identical to a from-scratch contention.ComputeCosts.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for name, g := range topologies(t) {
		for _, workers := range []int{1, 4} {
			t.Run(name, func(t *testing.T) {
				n := g.NumNodes()
				st := cache.NewState(n, 4)
				m, err := New(g, nil, st, Options{FairnessWeight: 1})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				pl := pool.New(workers)
				defer pl.Close()
				ctx := context.Background()
				rng := rand.New(rand.NewSource(int64(n)))

				chunk := 0
				var placed [][2]int // (node, chunk) pairs available for eviction
				for round := 0; round < 60; round++ {
					// A small batch of commits, like one chunk's ADMIN set…
					batch := 1 + rng.Intn(5)
					for b := 0; b < batch; b++ {
						node := rng.Intn(n)
						if st.Free(node) <= 0 || st.Has(node, chunk) {
							continue
						}
						if err := m.Commit(node, chunk); err != nil {
							t.Fatalf("round %d: commit(%d,%d): %v", round, node, chunk, err)
						}
						placed = append(placed, [2]int{node, chunk})
					}
					chunk++
					// …and occasional TTL-style evictions.
					for e := 0; e < 3 && len(placed) > 0 && rng.Intn(3) == 0; e++ {
						i := rng.Intn(len(placed))
						p := placed[i]
						placed = append(placed[:i], placed[i+1:]...)
						if !m.Evict(p[0], p[1]) {
							t.Fatalf("round %d: evict(%d,%d) found nothing", round, p[0], p[1])
						}
					}
					if err := m.Verify(ctx, pl); err != nil {
						t.Fatalf("round %d (workers=%d): %v", round, workers, err)
					}
				}
			})
		}
	}
}

// TestCostsMatchContentionPackage pins the borrowed view against the
// original one-shot implementation on a fresh state, bit for bit.
func TestCostsMatchContentionPackage(t *testing.T) {
	for name, g := range topologies(t) {
		st := cache.NewState(g.NumNodes(), 3)
		m, err := New(g, nil, st, Options{FairnessWeight: 1})
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		got, err := m.CostsCtx(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: CostsCtx: %v", name, err)
		}
		want := contention.ComputeCosts(g, st)
		for i := 0; i < want.N; i++ {
			for j := 0; j < want.N; j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("%s: cell (%d,%d) differs: %v vs %v", name, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// TestForkWarm checks that a fork from an empty-state base model is a warm
// copy: identical to a cold model over the new state, and independent of
// the parent afterwards.
func TestForkWarm(t *testing.T) {
	g := clusteredGraph(t, 3, 8, 3)
	n := g.NumNodes()
	ctx := context.Background()
	base, err := New(g, nil, cache.NewState(n, 1), Options{FairnessWeight: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := base.RefreshCtx(ctx, nil); err != nil {
		t.Fatalf("refresh: %v", err)
	}

	st := cache.NewState(n, 5)
	st.SetBattery(2, 0.5)
	fork, err := base.ForkCtx(ctx, nil, st, Options{FairnessWeight: 2, BatteryWeight: 1})
	if err != nil {
		t.Fatalf("ForkCtx: %v", err)
	}
	if s := base.Stats(); s.WarmForks != 1 || s.ColdForks != 0 {
		t.Fatalf("empty-state fork should be warm: %+v", s)
	}
	if err := fork.Verify(ctx, nil); err != nil {
		t.Fatalf("fork verify: %v", err)
	}
	if s := fork.Stats(); s.Sweeps != 0 {
		t.Errorf("warm fork swept its copied matrix again: %+v", s)
	}

	// Mutating the fork must leave the parent untouched.
	if err := fork.Commit(1, 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := fork.Verify(ctx, nil); err != nil {
		t.Fatalf("fork verify after commit: %v", err)
	}
	if err := base.Verify(ctx, nil); err != nil {
		t.Fatalf("parent drifted after fork mutation: %v", err)
	}

	// A fork onto a non-empty state (different weights) must fall back to
	// a cold model rather than serve stale matrices.
	loaded := cache.NewState(n, 5)
	if err := loaded.Store(4, 9); err != nil {
		t.Fatalf("store: %v", err)
	}
	cold, err := base.ForkCtx(ctx, nil, loaded, Options{FairnessWeight: 1})
	if err != nil {
		t.Fatalf("ForkCtx: %v", err)
	}
	if s := base.Stats(); s.ColdForks != 1 {
		t.Fatalf("loaded-state fork should be cold: %+v", s)
	}
	if err := cold.Verify(ctx, nil); err != nil {
		t.Fatalf("cold fork verify: %v", err)
	}
}

// TestSwapTopology checks a topology swap as the online engine performs
// one: a fresh model with its own path cache bound over the live cache
// state. Costs rebuild against the new graph, cached chunks carry over,
// further deltas stay exact, and a state of another size is rejected.
func TestSwapTopology(t *testing.T) {
	g1 := gridGraph(t, 5, 5)
	pc := graph.NewPathCache(g1)
	st := cache.NewState(25, 4)
	opts := Options{FairnessWeight: 1}
	m, err := New(g1, pc, st, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if err := m.Commit(3, 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := m.Verify(ctx, nil); err != nil {
		t.Fatalf("pre-swap verify: %v", err)
	}
	if got := pc.Cached(); got != 25 {
		t.Fatalf("expected 25 cached entries pre-swap, got %d", got)
	}

	g2 := randomGraph(t, 25, 20, 99)
	pc2 := graph.NewPathCache(g2)
	swapped, err := New(g2, pc2, m.State(), opts)
	if err != nil {
		t.Fatalf("New over the live state: %v", err)
	}
	if swapped.PathCache() != pc2 || pc2.Cached() != 0 {
		t.Fatalf("swapped model does not start from its own empty path cache (%d entries)", pc2.Cached())
	}
	if err := swapped.Verify(ctx, nil); err != nil {
		t.Fatalf("post-swap verify: %v", err)
	}
	if got := pc2.Cached(); got != 25 {
		t.Fatalf("expected 25 cached entries for the new graph, got %d", got)
	}
	// Cached chunks carry over: node 3 still holds chunk 0, and further
	// deltas on the new topology stay exact.
	if !swapped.State().Has(3, 0) {
		t.Fatal("swap lost cached chunk")
	}
	if err := swapped.Commit(7, 1); err != nil {
		t.Fatalf("commit after swap: %v", err)
	}
	if err := swapped.Verify(ctx, nil); err != nil {
		t.Fatalf("post-swap incremental verify: %v", err)
	}

	if _, err := New(graph.New(3), nil, swapped.State(), opts); !errors.Is(err, ErrMismatch) {
		t.Fatalf("New over a graph with a different node count: err = %v, want ErrMismatch", err)
	}
}

// TestHopMatrix pins the memoised hop matrix against AllPairsHops.
func TestHopMatrix(t *testing.T) {
	g := randomGraph(t, 30, 25, 5)
	m, err := New(g, nil, cache.NewState(30, 1), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := m.HopMatrixCtx(context.Background(), nil)
	if err != nil {
		t.Fatalf("HopMatrixCtx: %v", err)
	}
	want := g.AllPairsHops()
	for i := range want {
		for j := range want[i] {
			if int(got[i][j]) != want[i][j] {
				t.Fatalf("hop (%d,%d): got %v want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	again, err := m.HopMatrixCtx(context.Background(), nil)
	if err != nil {
		t.Fatalf("HopMatrixCtx: %v", err)
	}
	if &again[0] != &got[0] {
		t.Error("hop matrix not memoised")
	}
}
