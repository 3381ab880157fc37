package exact

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/pool"
)

func TestSolveChunkCtxCancelled(t *testing.T) {
	g := graph.NewGrid(4, 4)
	st := cache.NewState(g.NumNodes(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solveChunkModel(ctx, newModel(t, g, st, 1), 0, Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("single-chunk search: err = %v, want context.Canceled", err)
	}
	if _, err := PlaceChunksCtx(ctx, newModel(t, g, st, 1), 0, 2, Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlaceChunksCtx: err = %v, want context.Canceled", err)
	}
}

// TestSolveChunkWorkersIdentical checks the pooled precomputation does not
// change the search outcome.
func TestSolveChunkWorkersIdentical(t *testing.T) {
	g := graph.NewGrid(3, 3)
	solve := func(workers int) *Solution {
		pl := pool.New(workers)
		defer pl.Close()
		st := cache.NewState(g.NumNodes(), 2)
		sol, err := solveChunkModel(context.Background(), newModel(t, g, st, 1), 0, Options{MaxSubsetSize: 3}, pl)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	want := solve(1)
	got := solve(4)
	if got.Total() != want.Total() || len(got.Facilities) != len(want.Facilities) {
		t.Fatalf("parallel: %v (%v) != %v (%v)", got.Facilities, got.Total(), want.Facilities, want.Total())
	}
	for i := range want.Facilities {
		if got.Facilities[i] != want.Facilities[i] {
			t.Fatalf("facilities %v != %v", got.Facilities, want.Facilities)
		}
	}
}
