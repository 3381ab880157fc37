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

func BenchmarkSolvePrimalDual6x6(b *testing.B) {
	inst := benchInstance(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolvePrimalDual10x10(b *testing.B) {
	inst := benchInstance(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveGreedy6x6(b *testing.B) {
	inst := benchInstance(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGreedyCtx(context.Background(), inst, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
