package dist

import (
	"context"
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
