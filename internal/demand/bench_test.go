package demand

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// BenchmarkAdaptPass times the daemon's adaptive loop at its settings (a
// 15×15 grid with the producer at its centre, 64 chunks, capacity 3,
// TopDelta 24, CopyBudget 150, HitRadius 2): each op serves 10,000
// Zipf(0.9) request events and then runs one adaptation pass. Set-up
// seeds the placement and runs 16 passes first, since the passes right
// after seeding move most of the static placement and run longer.
func BenchmarkAdaptPass(b *testing.B) {
	const (
		chunks   = 64
		period   = 10000
		warmup   = 16
		capacity = 3
	)
	g := graph.NewGrid(15, 15)
	producer := graph.CentralNode(g)
	m := newModel(b, g, capacity)
	s, err := New(m, producer, chunks, Options{TopDelta: 24, CopyBudget: 150, HitRadius: 2})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := s.SeedCtx(ctx); err != nil {
		b.Fatal(err)
	}
	tr, err := sim.NewTrace(sim.TraceSpec{
		Nodes: g.NumNodes(), Chunks: chunks, Seed: 1, ZipfS: 0.9,
		DriftEvery: 25 * period, Exclude: producer,
	})
	if err != nil {
		b.Fatal(err)
	}
	pass := func() {
		for i := 0; i < period; i++ {
			r := tr.Next()
			if _, _, err := s.Observe(r.Node, r.Chunk); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.AdaptCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		pass()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
