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
func benchSystem(b *testing.B, m *costmodel.Model) (pass func(period []sim.Request)) {
	s, err := New(m, graph.CentralNode(m.Graph()), benchChunks, Options{TopDelta: 24, CopyBudget: 150, HitRadius: 2})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if err := s.SeedCtx(ctx); err != nil {
		b.Fatal(err)
	}
	return func(period []sim.Request) {
		for _, r := range period {
			if _, _, err := s.Observe(r.Node, r.Chunk); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.AdaptCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrace returns the daemon's request stream on g: Zipf(0.9) events
// from seed 1 that never come from the producer. The benchmarks draw it
// outside their timed ops, since the daemon's clients make the events.
func benchTrace(b *testing.B, g *graph.Graph) *sim.Trace {
	tr, err := sim.NewTrace(sim.TraceSpec{
		Nodes: g.NumNodes(), Chunks: benchChunks, Seed: 1, ZipfS: 0.9,
		DriftEvery: 25 * benchPeriod, Exclude: graph.CentralNode(g),
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// nextPeriod fills period with the trace's next events and returns it.
func nextPeriod(tr *sim.Trace, period []sim.Request) []sim.Request {
	for i := range period {
		period[i] = tr.Next()
	}
	return period
}

// BenchmarkAdaptPass times the daemon's adaptive loop at its settings:
// each op serves 10,000 request events and then runs one adaptation
// pass. Set-up seeds the placement and runs the 16 warm-up passes first.
func BenchmarkAdaptPass(b *testing.B) {
	g := graph.NewGrid(benchSide, benchSide)
	pass := benchSystem(b, newModel(b, g, benchCapacity))
	tr := benchTrace(b, g)
	period := make([]sim.Request, benchPeriod)
	for i := 0; i < benchWarmup; i++ {
		pass(nextPeriod(tr, period))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nextPeriod(tr, period)
		b.StartTimer()
		pass(period)
	}
}

// BenchmarkSeedAndWarmUp times what BenchmarkAdaptPass leaves out of its
// timing, as an adaptive daemon starts: each op forks a warm empty model,
// builds and seeds a system on it (64 chunks at capacity 3, so ConFL
// solves under capacity pressure) and runs the 16 warm-up passes on the
// same 16 periods of events.
func BenchmarkSeedAndWarmUp(b *testing.B) {
	base := newModel(b, graph.NewGrid(benchSide, benchSide), benchCapacity)
	// Sweep the base once, so that every op's fork copies a warm matrix.
	if err := base.RefreshCtx(context.Background(), nil); err != nil {
		b.Fatal(err)
	}
	tr := benchTrace(b, base.Graph())
	periods := make([][]sim.Request, benchWarmup)
	for k := range periods {
		periods[k] = nextPeriod(tr, make([]sim.Request, benchPeriod))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := base.ForkCtx(context.Background(), nil, cache.NewState(base.Graph().NumNodes(), benchCapacity), costmodel.Options{FairnessWeight: 1})
		if err != nil {
			b.Fatal(err)
		}
		pass := benchSystem(b, m)
		for _, period := range periods {
			pass(period)
		}
	}
}
