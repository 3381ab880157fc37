package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/pool"
)

func placeOn(t *testing.T, g *graph.Graph, opts Options, workers, producer, chunks int) *Placement {
	t.Helper()
	pl := pool.New(workers)
	defer pl.Close()
	st := cache.NewState(g.NumNodes(), chunks)
	p, err := PlaceCtx(context.Background(), newModel(t, g, st), producer, chunks, opts, pl)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParallelPlacementIsByteIdentical is the engine-level determinism
// check: the full placement — holder sets, assignments and all float cost
// terms — must match the sequential path bit for bit at any pool width.
func TestParallelPlacementIsByteIdentical(t *testing.T) {
	g := graph.NewGrid(8, 8)
	const chunks = 6
	want := placeOn(t, g, DefaultOptions(), 1, 0, chunks)

	for _, workers := range []int{0, 2, 4, 8} {
		for _, strategy := range []Strategy{PrimalDual, Greedy} {
			opts := DefaultOptions()
			opts.Strategy = strategy
			wantS := want
			if strategy != PrimalDual {
				wantS = placeOn(t, g, opts, 1, 0, chunks)
			}
			got := placeOn(t, g, opts, workers, 0, chunks)
			if len(got.Chunks) != len(wantS.Chunks) {
				t.Fatalf("workers=%d strategy=%d: %d chunks, want %d", workers, strategy, len(got.Chunks), len(wantS.Chunks))
			}
			for n := range wantS.Chunks {
				w, gc := wantS.Chunks[n], got.Chunks[n]
				if len(w.CacheNodes) != len(gc.CacheNodes) {
					t.Fatalf("workers=%d strategy=%d chunk %d: holders %v != %v", workers, strategy, n, gc.CacheNodes, w.CacheNodes)
				}
				for k := range w.CacheNodes {
					if w.CacheNodes[k] != gc.CacheNodes[k] {
						t.Fatalf("workers=%d strategy=%d chunk %d: holders %v != %v", workers, strategy, n, gc.CacheNodes, w.CacheNodes)
					}
				}
				for j := range w.Assign {
					if w.Assign[j] != gc.Assign[j] {
						t.Fatalf("workers=%d strategy=%d chunk %d: assign[%d] %d != %d", workers, strategy, n, j, gc.Assign[j], w.Assign[j])
					}
				}
				for _, pair := range [][2]float64{
					{w.Fairness, gc.Fairness},
					{w.Access, gc.Access},
					{w.Dissemination, gc.Dissemination},
				} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("workers=%d strategy=%d chunk %d: cost %v != %v", workers, strategy, n, pair[1], pair[0])
					}
				}
				if w.Iterations != gc.Iterations {
					t.Fatalf("workers=%d strategy=%d chunk %d: iterations %d != %d", workers, strategy, n, gc.Iterations, w.Iterations)
				}
			}
		}
	}
}

// TestCancelStopsMidSolve cancels the context from inside the engine's
// per-chunk hook and asserts the solve stops there instead of running the
// remaining chunks.
func TestCancelStopsMidSolve(t *testing.T) {
	g := graph.NewGrid(6, 6)
	const chunks = 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := 0
	opts := DefaultOptions()
	opts.ChunkStarted = func(chunk int) {
		started++
		if chunk == 2 {
			cancel()
		}
	}
	st := cache.NewState(g.NumNodes(), chunks)
	_, err := PlaceCtx(ctx, newModel(t, g, st), 0, chunks, opts, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PlaceCtx: err = %v, want context.Canceled", err)
	}
	if started >= chunks {
		t.Fatalf("engine started all %d chunks despite mid-solve cancel", started)
	}
	if started < 3 {
		t.Fatalf("hook ran %d times, expected to reach chunk 2", started)
	}
}

func TestPlaceCtxPreCancelled(t *testing.T) {
	g := graph.NewGrid(4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := newModel(t, g, cache.NewState(g.NumNodes(), 2))
	if _, err := PlaceCtx(ctx, m, 0, 2, DefaultOptions(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlaceCtx: err = %v, want context.Canceled", err)
	}
	if _, err := PlaceOneCtx(ctx, m, 0, 0, DefaultOptions(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlaceOneCtx: err = %v, want context.Canceled", err)
	}
}

// TestPathCacheReuseAcrossSolves runs the same solve twice on models that
// share one path cache (warm cache the second time) and expects identical
// results.
func TestPathCacheReuseAcrossSolves(t *testing.T) {
	g := graph.NewGrid(5, 5)
	pc := graph.NewPathCache(g)
	run := func() *Placement {
		m, err := costmodel.New(g, pc, cache.NewState(g.NumNodes(), 4), costmodel.Options{FairnessWeight: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, err := PlaceCtx(context.Background(), m, 3, 4, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first, second := run(), run()
	for n := range first.Chunks {
		a, b := first.Chunks[n], second.Chunks[n]
		if math.Float64bits(a.Total()) != math.Float64bits(b.Total()) {
			t.Fatalf("chunk %d: warm-cache total %v != cold %v", n, b.Total(), a.Total())
		}
		for k := range a.CacheNodes {
			if a.CacheNodes[k] != b.CacheNodes[k] {
				t.Fatalf("chunk %d: holders differ between runs: %v vs %v", n, a.CacheNodes, b.CacheNodes)
			}
		}
	}
}
