package core

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/graph"
)

// placeOneAllocs measures the steady-state allocation rate of PlaceOneCtx
// under a given strategy: one warm-up call pays the cold model build, then
// each measured call places a fresh chunk against the same long-lived
// model (the online-system shape).
func placeOneAllocs(t *testing.T, strategy Strategy, runs int) float64 {
	t.Helper()
	g := graph.NewGrid(6, 6)
	opts := DefaultOptions()
	opts.Strategy = strategy
	// Capacity far above what the runs commit, so every placement succeeds.
	st := cache.NewState(36, 4*(runs+2))
	m, err := costmodel.New(g, nil, st, costmodel.Options{FairnessWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	chunk := 0
	place := func() {
		// A nil pool is the sequential reference path; pool overhead is
		// the caller's and measured separately.
		if _, err := PlaceOneCtx(context.Background(), m, 9, chunk, opts, nil); err != nil {
			t.Fatal(err)
		}
		chunk++
	}
	place() // cold call: full cost build + scratch growth
	return testing.AllocsPerRun(runs, place)
}

// TestPlaceOneModelCtxAllocBudget pins the per-chunk allocation ceiling of
// the warm Algorithm-1 iteration for both ConFL strategies. Before the
// scratch-arena refactor one iteration cost thousands of allocations; the
// ceilings hold the steady state to the low dozens (ChunkResult, the
// Solution copy-out, the committed tree) so per-tick or per-node garbage
// cannot silently return.
func TestPlaceOneModelCtxAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy Strategy
		ceiling  float64
	}{
		// PrimalDual is the paper path: everything transient lives in the
		// arena, so only result construction remains.
		{"primal-dual", PrimalDual, 30},
		// Greedy re-derives facility sets per call and keeps its own
		// small working maps; it is off the hot path but still bounded.
		{"greedy", Greedy, 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := placeOneAllocs(t, tc.strategy, 20)
			t.Logf("PlaceOneCtx(%s): %.1f allocs/run", tc.name, got)
			if got > tc.ceiling {
				t.Errorf("PlaceOneCtx allocates %.1f times per run, want <= %g", got, tc.ceiling)
			}
		})
	}
}
