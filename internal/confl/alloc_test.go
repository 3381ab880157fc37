package confl

import (
	"context"
	"testing"
)

// allocInstance builds a deterministic standalone instance: line-metric
// connection costs |i-j| and uniform facility costs.
func allocInstance(n int) Instance {
	conn := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			conn[i*n+j] = float64(d)
		}
	}
	fc := make([]float64, n)
	for i := range fc {
		fc[i] = 3
	}
	return Instance{N: n, Producer: 0, FacilityCost: fc, ConnCost: conn}
}

// TestSteadyStateTickAllocFree pins the dual growth's allocation contract:
// on a warm scratch, reset plus every tick until all demands are frozen
// performs zero heap allocations. Any regression here multiplies across
// every tick of every chunk of every solve, so the ceiling is exactly 0.
func TestSteadyStateTickAllocFree(t *testing.T) {
	inst := allocInstance(48)
	opts := Options{AlphaStep: 1, GammaStep: 1, SpanQuorum: 1}

	// Warm the scratch with one full solve so every buffer has its size.
	var scr Scratch
	sol, err := SolveScratchCtx(context.Background(), inst, opts, &scr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Facilities) == 0 {
		t.Fatal("the instance opens no facility; the growth would not be exercised")
	}

	ticks := 0
	got := testing.AllocsPerRun(50, func() {
		s := scr.s.reset(inst, opts)
		for ticks = 0; s.anyActive(); ticks++ {
			s.tick()
		}
	})
	if ticks != sol.Iterations {
		t.Fatalf("dual growth ran %d ticks, want %d", ticks, sol.Iterations)
	}
	if got != 0 {
		t.Errorf("warm dual growth allocates %.1f times per run, want 0", got)
	}
}

// TestSolveScratchAllocBudget pins the whole-solve budget on a warm
// scratch: only the returned Solution (Assign, Alpha, Facilities and the
// struct itself) may allocate. The ceiling leaves no room for per-tick or
// per-node garbage to creep back in.
func TestSolveScratchAllocBudget(t *testing.T) {
	inst := allocInstance(48)
	opts := Options{AlphaStep: 1, GammaStep: 1, SpanQuorum: 1}
	ctx := context.Background()

	var scr Scratch
	if _, err := SolveScratchCtx(ctx, inst, opts, &scr); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := SolveScratchCtx(ctx, inst, opts, &scr); err != nil {
			t.Fatal(err)
		}
	})
	// Solution struct + Assign + Alpha + Facilities growth ≈ 6-8 allocs;
	// 16 gives slack for size-class variation without masking a leak of
	// even one alloc per tick (48 nodes ⇒ tens of ticks).
	if got > 16 {
		t.Errorf("warm SolveScratchCtx allocates %.1f times per run, want <= 16", got)
	}
}
