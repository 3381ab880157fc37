package demand

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/sim"
)

// The daemon's adaptive settings: a 15×15 grid with the producer at its
// centre, 64 chunks, capacity 3, TopDelta 24, CopyBudget 150, HitRadius 2,
// and a pass after every 10,000 Zipf(0.9) request events. The first 16
// passes after seeding move most of the static placement and run longer.
const (
	benchSide     = 15
	benchChunks   = 64
	benchCapacity = 3
	benchPeriod   = 10000
	benchWarmup   = 16
)

// benchSystem builds and seeds a system with the daemon's settings on the
// model m, which it adopts, and returns a function that serves one period
// of events and then runs one adaptation pass.
func benchSystem(b *testing.B, m *costmodel.Model) (pass func()) {
	g := m.Graph()
	producer := graph.CentralNode(g)
	s, err := New(m, producer, benchChunks, Options{TopDelta: 24, CopyBudget: 150, HitRadius: 2})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := s.SeedCtx(ctx); err != nil {
		b.Fatal(err)
	}
	tr, err := sim.NewTrace(sim.TraceSpec{
		Nodes: g.NumNodes(), Chunks: benchChunks, Seed: 1, ZipfS: 0.9,
		DriftEvery: 25 * benchPeriod, Exclude: producer,
	})
	if err != nil {
		b.Fatal(err)
	}
	return func() {
		for i := 0; i < benchPeriod; i++ {
			r := tr.Next()
			if _, _, err := s.Observe(r.Node, r.Chunk); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.AdaptCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptPass times the daemon's adaptive loop at its settings:
// each op serves 10,000 request events and then runs one adaptation
// pass. Set-up seeds the placement and runs the 16 warm-up passes first.
func BenchmarkAdaptPass(b *testing.B) {
	pass := benchSystem(b, newModel(b, graph.NewGrid(benchSide, benchSide), benchCapacity))
	for i := 0; i < benchWarmup; i++ {
		pass()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// BenchmarkSeedAndWarmUp times what BenchmarkAdaptPass leaves out of its
// timing, as an adaptive daemon starts: each op forks a warm empty model,
// builds and seeds a system on it (64 chunks at capacity 3, so ConFL
// solves under capacity pressure) and runs the 16 warm-up passes.
func BenchmarkSeedAndWarmUp(b *testing.B) {
	base := newModel(b, graph.NewGrid(benchSide, benchSide), benchCapacity)
	// Sweep the base once, so that every op's fork copies a warm matrix.
	if err := base.RefreshCtx(context.Background(), nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := base.ForkCtx(context.Background(), nil, cache.NewState(base.Graph().NumNodes(), benchCapacity), costmodel.Options{FairnessWeight: 1})
		if err != nil {
			b.Fatal(err)
		}
		pass := benchSystem(b, m)
		for k := 0; k < benchWarmup; k++ {
			pass()
		}
	}
}
