package confl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pool"
)

// randomInstance builds a valid symmetric instance with a few pre-open
// nodes and a few storage-full (+Inf facility cost) nodes.
func randomInstance(seed int64, n int) Instance {
	rng := rand.New(rand.NewSource(seed))
	conn := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 1 + 30*rng.Float64()
			conn[i*n+j], conn[j*n+i] = c, c
		}
	}
	fc := make([]float64, n)
	for i := range fc {
		if rng.Intn(10) == 0 {
			fc[i] = math.Inf(1)
		} else {
			fc[i] = 5 + 50*rng.Float64()
		}
	}
	inst := Instance{N: n, Producer: rng.Intn(n), FacilityCost: fc, ConnCost: conn}
	if rng.Intn(2) == 0 {
		inst.PreOpen = []int{rng.Intn(n)}
	}
	return inst
}

func sameSolution(t *testing.T, tag string, want, got *Solution) {
	t.Helper()
	if len(want.Facilities) != len(got.Facilities) {
		t.Fatalf("%s: facilities %v != %v", tag, got.Facilities, want.Facilities)
	}
	for k := range want.Facilities {
		if want.Facilities[k] != got.Facilities[k] {
			t.Fatalf("%s: facilities %v != %v", tag, got.Facilities, want.Facilities)
		}
	}
	for j := range want.Assign {
		if want.Assign[j] != got.Assign[j] {
			t.Fatalf("%s: assign[%d] = %d, want %d", tag, j, got.Assign[j], want.Assign[j])
		}
		if math.Float64bits(want.Alpha[j]) != math.Float64bits(got.Alpha[j]) {
			t.Fatalf("%s: alpha[%d] = %v, want %v", tag, j, got.Alpha[j], want.Alpha[j])
		}
	}
	if want.Iterations != got.Iterations {
		t.Fatalf("%s: iterations %d != %d", tag, got.Iterations, want.Iterations)
	}
}

func TestSolveParallelMatchesSequential(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	for seed := int64(0); seed < 8; seed++ {
		inst := randomInstance(seed, 40)
		seq, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		opts := DefaultOptions()
		opts.Pool = p
		par, err := SolveScratchCtx(context.Background(), inst, opts, nil)
		if err != nil {
			t.Fatalf("seed %d: parallel: %v", seed, err)
		}
		sameSolution(t, "primal-dual", seq, par)
	}
}

func TestSolveGreedyParallelMatchesSequential(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	for seed := int64(100); seed < 108; seed++ {
		inst := randomInstance(seed, 40)
		seq, err := SolveGreedyCtx(context.Background(), inst, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		opts := DefaultOptions()
		opts.Pool = p
		par, err := SolveGreedyCtx(context.Background(), inst, opts)
		if err != nil {
			t.Fatalf("seed %d: parallel: %v", seed, err)
		}
		sameSolution(t, "greedy", seq, par)
	}
}

func TestSolveCtxCancelled(t *testing.T) {
	inst := randomInstance(1, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveScratchCtx(ctx, inst, DefaultOptions(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveScratchCtx: err = %v, want context.Canceled", err)
	}
	if _, err := SolveGreedyCtx(ctx, inst, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveGreedyCtx: err = %v, want context.Canceled", err)
	}
}
