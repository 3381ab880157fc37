package demand

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pool"
)

// TestAdaptationPropertyInvariants drives randomized request/adapt/evict
// sequences over grid, random and clustered topologies at worker widths
// 1 and 4 and asserts, throughout:
//
//   - no node ever exceeds its capacity,
//   - the holder bookkeeping mirrors the cache state exactly,
//   - the cost model stays byte-identical to its
//     full-recompute Verify oracle.
//
// Across the matrix the walk takes >10k randomized steps in total.
func TestAdaptationPropertyInvariants(t *testing.T) {
	topologies := []struct {
		name  string
		build func(t *testing.T) *graph.Graph
	}{
		{"grid", func(t *testing.T) *graph.Graph { return graph.NewGrid(6, 6) }},
		{"random", func(t *testing.T) *graph.Graph {
			rg := graph.RandomGeometric{N: 40, Radius: graph.DefaultRadius(40)}
			g, _, err := rg.Generate(rand.New(rand.NewSource(17)))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"clustered", func(t *testing.T) *graph.Graph {
			c := graph.Clustered{Clusters: 3, Size: 8, IntraProb: 0.5, Bridges: 2}
			g, err := c.Generate(rand.New(rand.NewSource(23)))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, tc := range topologies {
		for _, workers := range []int{1, 4} {
			tc, workers := tc, workers
			t.Run(tc.name, func(t *testing.T) {
				runPropertyWalk(t, tc.build(t), workers, 2000)
			})
		}
	}
}

func runPropertyWalk(t *testing.T, g *graph.Graph, workers, steps int) {
	t.Helper()
	setWidth(t, workers)
	const chunks = 10
	s, err := New(newModel(t, g, 2), 0, chunks, Options{
		TopDelta:   4,
		CopyBudget: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.SeedCtx(ctx); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(workers)*1000 + int64(g.NumNodes())))
	n := g.NumNodes()
	pl := pool.New(0)
	defer pl.Close()

	checkInvariants := func(step int) {
		for v := 0; v < n; v++ {
			if s.st.Free(v) < 0 {
				t.Fatalf("step %d: node %d over capacity (%d/%d)", step, v, s.st.Stored(v), s.st.Capacity(v))
			}
		}
	}
	verify := func(step int) {
		if err := s.model.Verify(ctx, pl); err != nil {
			t.Fatalf("step %d: cost model diverged from oracle: %v", step, err)
		}
		checkHoldersSync(t, s)
	}
	verify(0)

	for step := 0; step < steps; step++ {
		switch r := rng.Float64(); {
		case r < 0.90: // request
			node := rng.Intn(n)
			if _, _, err := s.Observe(node, rng.Intn(chunks)); err != nil {
				t.Fatalf("step %d: observe: %v", step, err)
			}
		case r < 0.97: // direct eviction of a random live copy
			k := rng.Intn(chunks)
			if hs := s.holders[k]; len(hs) > 0 {
				v := hs[rng.Intn(len(hs))]
				if !s.evict(v, k) {
					t.Fatalf("step %d: evict(%d, %d) found nothing", step, v, k)
				}
			}
		default: // adaptation pass
			if _, err := s.AdaptCtx(ctx); err != nil {
				t.Fatalf("step %d: adapt: %v", step, err)
			}
		}
		checkInvariants(step)
		if step%500 == 499 {
			verify(step)
		}
	}
	verify(steps)
	st := s.Stats()
	if st.Requests == 0 || st.Adaptations == 0 {
		t.Fatalf("walk exercised too little: %+v", st)
	}
}
