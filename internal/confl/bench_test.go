package confl

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/graph"
)

func benchInstance(side int) Instance {
	g := graph.NewGrid(side, side)
	st := cache.NewState(g.NumNodes(), 5)
	costs := contention.ComputeCosts(g, st)
	return Instance{
		N:            g.NumNodes(),
		Producer:     9 % g.NumNodes(),
		FacilityCost: st.FairnessCosts(),
		ConnCost:     costs.C,
	}
}

// benchPrimalDual times the dual growth on one warm Scratch, as
// core.placeChunk runs it, so buffer allocation stays out of the timing.
func benchPrimalDual(b *testing.B, side int) {
	inst := benchInstance(side)
	ctx := context.Background()
	var scr Scratch
	if _, err := SolveScratchCtx(ctx, inst, DefaultOptions(), &scr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveScratchCtx(ctx, inst, DefaultOptions(), &scr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePrimalDual6x6(b *testing.B) { benchPrimalDual(b, 6) }

func BenchmarkSolvePrimalDual10x10(b *testing.B) { benchPrimalDual(b, 10) }

// BenchmarkSolvePrimalDual15x15 is the grid of the placement benchmark's
// slowest Appx class.
func BenchmarkSolvePrimalDual15x15(b *testing.B) { benchPrimalDual(b, 15) }

func BenchmarkSolveGreedy6x6(b *testing.B) {
	inst := benchInstance(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGreedyCtx(context.Background(), inst, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
