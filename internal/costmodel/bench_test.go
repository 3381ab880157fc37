package costmodel

import (
	"context"
	"testing"

	"repro/internal/cache"
)

// refreshCycle replays Algorithm 1's hot loop against m: for each of
// chunks iterations it commits perChunk nodes and then reads the refreshed
// cost matrix, exactly the refresh the per-chunk loop pays. The node
// choice is deterministic so every run does identical logical work.
func refreshCycle(b *testing.B, m *Model, chunks, perChunk, n int) {
	b.Helper()
	ctx := context.Background()
	for c := 0; c < chunks; c++ {
		committed := 0
		for j := 0; committed < perChunk; j++ {
			node := (c*37 + j*13) % n
			if m.State().Free(node) <= 0 || m.State().Has(node, c) {
				continue
			}
			if err := m.Commit(node, c); err != nil {
				b.Fatalf("commit(%d,%d): %v", node, c, err)
			}
			committed++
		}
		if _, err := m.CostsCtx(ctx, nil); err != nil {
			b.Fatalf("refresh: %v", err)
		}
	}
}

// BenchmarkCostRefresh measures the per-chunk cost refresh on a 15×15 grid
// (225 nodes) over 8 chunks at two commit densities: sparse commits 5
// nodes per chunk at capacity 8, dense commits 46, about what Appx places
// per chunk on this grid at capacity 5. The cold build runs outside the
// timer; what is measured is exactly the per-chunk refresh work.
func BenchmarkCostRefresh(b *testing.B) {
	for _, bc := range []struct {
		name               string
		capacity, perChunk int
	}{
		{"sparse", 8, 5},
		{"dense", 5, 46},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const chunks = 8
			g := gridGraph(b, 15, 15)
			n := g.NumNodes()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := New(g, nil, cache.NewState(n, bc.capacity), Options{FairnessWeight: 1})
				if err != nil {
					b.Fatalf("New: %v", err)
				}
				if err := m.RefreshCtx(ctx, nil); err != nil {
					b.Fatalf("cold build: %v", err)
				}
				b.StartTimer()
				refreshCycle(b, m, chunks, bc.perChunk, n)
			}
		})
	}
}

// BenchmarkTopologyModelCold measures the from-scratch model build a cold
// solve pays (BFS layers plus the all-pairs sweep).
func BenchmarkTopologyModelCold(b *testing.B) {
	g := gridGraph(b, 15, 15)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(g, nil, cache.NewState(g.NumNodes(), 1), Options{FairnessWeight: 1})
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		if err := m.RefreshCtx(ctx, nil); err != nil {
			b.Fatalf("refresh: %v", err)
		}
	}
}

// BenchmarkTopologyModelFork measures the warm-start alternative: forking
// a pre-built base model, which is what repeated solves on a registered
// topology pay instead of the cold build.
func BenchmarkTopologyModelFork(b *testing.B) {
	g := gridGraph(b, 15, 15)
	ctx := context.Background()
	base, err := New(g, nil, cache.NewState(g.NumNodes(), 1), Options{FairnessWeight: 1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	if err := base.RefreshCtx(ctx, nil); err != nil {
		b.Fatalf("refresh: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.ForkCtx(ctx, nil, cache.NewState(g.NumNodes(), 5), Options{FairnessWeight: 1}); err != nil {
			b.Fatalf("fork: %v", err)
		}
	}
}
