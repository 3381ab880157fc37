package dist

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
)

func BenchmarkProtocolOneChunk6x6(b *testing.B) {
	g := graph.NewGrid(6, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := New(g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.PlaceChunksCtx(context.Background(), 9, 1, cache.NewState(36, 5)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolFiveChunks8x8(b *testing.B) {
	g := graph.NewGrid(8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := New(g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.PlaceChunksCtx(context.Background(), 9, 5, cache.NewState(64, 5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolClustered5x16 is the `placement` deck's clustered Dist
// solve: five clusters of 16 (perfbench's seed 11), the central producer,
// 5 chunks at capacity 5. Its dense clusters give each device the largest
// k-hop tables of the deck.
func BenchmarkProtocolClustered5x16(b *testing.B) {
	g, err := graph.Clustered{Clusters: 5, Size: 16, IntraProb: 0.4, Bridges: 2}.Generate(rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	producer := graph.CentralNode(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr, err := New(g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pr.PlaceChunksCtx(context.Background(), producer, 5, cache.NewState(g.NumNodes(), 5)); err != nil {
			b.Fatal(err)
		}
	}
}
