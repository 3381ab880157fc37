package steiner

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func BenchmarkMSTApproxGrid8x8(b *testing.B) {
	g := graph.NewGrid(8, 8)
	w := func(u, v int) float64 { return float64(g.Degree(u) + g.Degree(v)) }
	terminals := []int{0, 7, 28, 56, 63}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MSTApprox(g, w, terminals); err != nil {
			b.Fatal(err)
		}
	}
}

// stored15x15 is the per-node chunk count of a committed placement: a
// 15×15 grid, producer 9, capacity 3, after the first 13 chunks of a
// 16-chunk Appx solve. terminals15x15 is chunk 13's caching set plus the
// producer, the terminals that solve connects next.
var (
	stored15x15 = []int{
		3, 3, 3, 3, 3, 3, 3, 1, 0, 0, 0, 1, 3, 3, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 1, 0, 1, 3, 3, 2, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 1, 2, 2, 2, 2, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 3,
		3, 3, 2, 3, 2, 3, 3, 2, 3, 2, 3, 2, 3, 2, 3,
		3, 3, 3, 3, 3, 2, 3, 3, 3, 2, 2, 2, 2, 2, 3,
		3, 3, 2, 2, 3, 3, 2, 2, 3, 2, 2, 2, 2, 2, 3,
		3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3,
	}
	terminals15x15 = []int{9, 28, 42, 43, 72, 87, 117, 118, 133, 148, 161, 163, 167, 169, 172, 189, 190, 191, 197, 198, 201, 223}
)

// BenchmarkMSTApprox15x15 is one phase-2 connection at solve shape: 22
// terminals on a 15×15 grid under the contention edge costs
// w_u + w_v, w_v = deg(v)·(1+S(v)), of a committed placement, on a warm
// scratch.
func BenchmarkMSTApprox15x15(b *testing.B) {
	g := graph.NewGrid(15, 15)
	node := make([]float64, g.NumNodes())
	for v := range node {
		node[v] = float64(g.Degree(v) * (1 + stored15x15[v]))
	}
	w := func(u, v int) float64 { return node[u] + node[v] }
	var scr Scratch
	ctx := context.Background()
	if _, err := MSTApproxScratchCtx(ctx, g, w, terminals15x15, nil, &scr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MSTApproxScratchCtx(ctx, g, w, terminals15x15, nil, &scr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactCostGrid5x5SixTerminals(b *testing.B) {
	g := graph.NewGrid(5, 5)
	w := func(u, v int) float64 { return float64(g.Degree(u) + g.Degree(v)) }
	terminals := []int{0, 4, 12, 20, 24, 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExactCost(g, w, terminals); err != nil {
			b.Fatal(err)
		}
	}
}
