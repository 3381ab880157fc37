package contention

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/pool"
)

func TestComputeCostsCtxMatchesSequential(t *testing.T) {
	g := graph.NewGrid(7, 7)
	st := cache.NewState(g.NumNodes(), 4)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < g.NumNodes(); i++ {
		for k := 0; k < rng.Intn(4); k++ {
			_ = st.Store(i, k)
		}
	}
	want := ComputeCosts(g, st)

	p := pool.New(4)
	defer p.Close()
	got, err := ComputeCostsCtx(context.Background(), g, st, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.N; i++ {
		for j := 0; j < want.N; j++ {
			if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
				t.Fatalf("C[%d][%d] = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
			if want.PredRow(i)[j] != got.PredRow(i)[j] {
				t.Fatalf("Pred[%d][%d] = %d, want %d", i, j, got.PredRow(i)[j], want.PredRow(i)[j])
			}
		}
	}
}

func TestComputeCostsCtxCancelled(t *testing.T) {
	g := graph.NewGrid(5, 5)
	st := cache.NewState(g.NumNodes(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeCostsCtx(ctx, g, st, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
