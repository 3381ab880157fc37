package baseline

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/pool"
)

func TestSelectNodesCtxMatchesSequential(t *testing.T) {
	g := graph.NewGrid(7, 7)
	p := pool.New(4)
	defer p.Close()
	for _, alg := range []Algorithm{HopCount, Contention} {
		lambda := RecommendedLambda(alg, g.NumNodes())
		want, err := SelectNodesCtx(context.Background(), g, 0, alg, lambda, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SelectNodesCtx(context.Background(), g, 0, alg, lambda, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("%v: %v != %v", alg, got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%v: selection %v != %v", alg, got, want)
			}
		}
	}
}

func TestPlaceChunksCtxParallelMatchesSequential(t *testing.T) {
	g := graph.NewGrid(6, 6)
	p := pool.New(4)
	defer p.Close()
	for _, alg := range []Algorithm{HopCount, Contention} {
		lambda := RecommendedLambda(alg, g.NumNodes())
		stA := cache.NewState(g.NumNodes(), 3)
		want, err := placeChunks(t, g, 0, 9, stA, alg, lambda)
		if err != nil {
			t.Fatal(err)
		}
		stB := cache.NewState(g.NumNodes(), 3)
		got, err := PlaceChunksModelCtx(context.Background(), topoModel(t, g), 0, 9, stB, alg, lambda, p)
		if err != nil {
			t.Fatal(err)
		}
		for n := range want.Holders {
			if len(want.Holders[n]) != len(got.Holders[n]) {
				t.Fatalf("%v chunk %d: holders %v != %v", alg, n, got.Holders[n], want.Holders[n])
			}
			for k := range want.Holders[n] {
				if want.Holders[n][k] != got.Holders[n][k] {
					t.Fatalf("%v chunk %d: holders %v != %v", alg, n, got.Holders[n], want.Holders[n])
				}
			}
		}
	}
}

func TestPlaceChunksCtxCancelled(t *testing.T) {
	g := graph.NewGrid(5, 5)
	st := cache.NewState(g.NumNodes(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlaceChunksModelCtx(ctx, topoModel(t, g), 0, 4, st, HopCount, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlaceChunksModelCtx: err = %v, want context.Canceled", err)
	}
	if _, err := SelectNodesCtx(ctx, g, 0, Contention, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectNodesCtx: err = %v, want context.Canceled", err)
	}
}
