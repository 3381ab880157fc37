package eval

import (
	"context"
	"fmt"
	"time"

	faircache "repro"
	"repro/internal/sim"
)

// AdaptiveScenario configures the trace-replay comparison of caching
// policies under a live Zipf request stream. Zero values select the
// defaults noted per field.
type AdaptiveScenario struct {
	// Rows and Cols size the grid topology (default 15×15, the sharded
	// evaluation's mid-size network).
	Rows, Cols int
	// Chunks is the chunk-id space (default 64); Capacity the per-node
	// cache capacity (default 3) — deliberately tight, so policies must
	// choose what to keep.
	Chunks   int
	Capacity int
	// Requests is the replay length (default 1,000,000).
	Requests int
	// Seed seeds the trace; identical scenarios replay identically.
	Seed int64
	// ZipfS is the trace's popularity exponent (default 0.9); DriftEvery
	// rotates the popularity ranking every so many requests (default
	// Requests/4, 0 < 0 disables).
	ZipfS      float64
	DriftEvery int
	// AdaptEvery is the adaptive policy's adaptation period in requests
	// (default 20,000).
	AdaptEvery int
	// HitRadius is the local-hit hop bound (default 2).
	HitRadius int
	// TopDelta and CopyBudget tune the adaptation pass (defaults 24 and
	// 150 — wide enough that each pass can rework the neighborhood
	// coverage, which is what lets adaptive overtake the LRU baseline).
	TopDelta   int
	CopyBudget int
	// SampleEvery is the Gini sampling period in requests (default
	// AdaptEvery).
	SampleEvery int
}

func (sc AdaptiveScenario) withDefaults() AdaptiveScenario {
	if sc.Rows == 0 {
		sc.Rows = 15
	}
	if sc.Cols == 0 {
		sc.Cols = 15
	}
	if sc.Chunks == 0 {
		sc.Chunks = 64
	}
	if sc.Capacity == 0 {
		sc.Capacity = 3
	}
	if sc.Requests == 0 {
		sc.Requests = 1_000_000
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.ZipfS == 0 {
		sc.ZipfS = 0.9
	}
	if sc.DriftEvery == 0 {
		sc.DriftEvery = sc.Requests / 4
	} else if sc.DriftEvery < 0 {
		sc.DriftEvery = 0
	}
	if sc.AdaptEvery == 0 {
		sc.AdaptEvery = 20_000
	}
	if sc.HitRadius == 0 {
		sc.HitRadius = 2
	}
	if sc.TopDelta == 0 {
		sc.TopDelta = 24
	}
	if sc.CopyBudget == 0 {
		sc.CopyBudget = 150
	}
	if sc.SampleEvery == 0 {
		sc.SampleEvery = sc.AdaptEvery
	}
	return sc
}

// traceSpec builds the scenario's request generator; every policy replays
// the identical stream.
func (sc AdaptiveScenario) traceSpec(producer int) sim.TraceSpec {
	return sim.TraceSpec{
		Nodes:      sc.Rows * sc.Cols,
		Chunks:     sc.Chunks,
		Seed:       sc.Seed,
		ZipfS:      sc.ZipfS,
		DriftEvery: sc.DriftEvery,
		Exclude:    producer,
	}
}

// giniTrack accumulates the over-time fairness summary.
type giniTrack struct {
	sum, last float64
	count     int
}

func (g *giniTrack) add(v float64) {
	g.sum += v
	g.last = v
	g.count++
}

func (g *giniTrack) mean() float64 {
	if g.count == 0 {
		return 0
	}
	return g.sum / float64(g.count)
}

// RunAdaptive replays the scenario's request trace under three policies —
// the static fair placement (seeded once, never adapted), a naive
// cooperative LRU (insert-on-miss at the requester, per-node LRU
// replacement, no placement intelligence), and the adaptive system
// (static seed + periodic demand-driven adaptation) — and reports
// hit-rate, retrieval cost, fairness over time (the mean and final Gini
// coefficient of the samples taken every SampleEvery requests), the
// policy's work and its wall time. All three policies serve requests by
// the same rule (nearest copy network-wide, local hit within HitRadius
// hops), so the rows differ only by placement policy.
func RunAdaptive(sc AdaptiveScenario) (*Table, error) {
	sc = sc.withDefaults()
	topo, err := faircache.Grid(sc.Rows, sc.Cols)
	if err != nil {
		return nil, err
	}
	producer := topo.CentralNode()

	t := &Table{
		Title:  fmt.Sprintf("Adaptive caching — %s-request Zipf trace replay (%d×%d grid)", shortCount(sc.Requests), sc.Rows, sc.Cols),
		Header: []string{"policy", "hit-rate", "cache-rate", "mean cost", "p99 cost", "gini mean", "gini final", "evictions", "adaptations", "copies placed", "ms"},
	}
	for _, policy := range []string{"static", "lru", "adaptive"} {
		start := time.Now()
		var st faircache.AdaptiveStats
		var gini giniTrack
		if policy == "lru" {
			st, gini, err = sc.runNaiveLRU(topo, producer)
		} else {
			st, gini, err = sc.runSystem(topo, producer, policy == "adaptive")
		}
		if err != nil {
			return nil, fmt.Errorf("adaptive replay %q: %w", policy, err)
		}
		t.Rows = append(t.Rows, []Cell{
			{Text: policy},
			num("%.4f", st.HitRate),
			num("%.4f", st.CacheRate),
			num("%.3f", st.MeanCost),
			num("%.0f", st.P99Cost),
			num("%.3f", gini.mean()),
			num("%.3f", gini.last),
			num("%.0f", float64(st.Evictions)),
			num("%.0f", float64(st.Adaptations)),
			num("%.0f", float64(st.CopiesPlaced)),
			num("%.0f", float64(time.Since(start).Microseconds())/1000),
		})
	}
	return t, nil
}

// shortCount prints a request count in whole millions or thousands
// where it is one (1M, 100k), else in full.
func shortCount(n int) string {
	switch {
	case n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n%1_000 == 0:
		return fmt.Sprintf("%dk", n/1_000)
	}
	return fmt.Sprint(n)
}

// runSystem replays the trace through an AdaptiveSystem, running an
// adaptation pass every AdaptEvery requests when adapt is set.
func (sc AdaptiveScenario) runSystem(topo *faircache.Topology, producer int, adapt bool) (faircache.AdaptiveStats, giniTrack, error) {
	var gini giniTrack
	trace, err := sim.NewTrace(sc.traceSpec(producer))
	if err != nil {
		return faircache.AdaptiveStats{}, gini, err
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		return faircache.AdaptiveStats{}, gini, err
	}
	sys, err := solver.NewAdaptive(context.Background(), producer, sc.Chunks, &faircache.AdaptiveOptions{
		Capacity:   sc.Capacity,
		HitRadius:  sc.HitRadius,
		TopDelta:   sc.TopDelta,
		CopyBudget: sc.CopyBudget,
	})
	if err != nil {
		return faircache.AdaptiveStats{}, gini, err
	}

	batch := make([]faircache.RequestEvent, 0, sc.SampleEvery)
	for done := 0; done < sc.Requests; {
		n := sc.SampleEvery
		if rem := sc.Requests - done; n > rem {
			n = rem
		}
		batch = batch[:0]
		for i := 0; i < n; i++ {
			r := trace.Next()
			batch = append(batch, faircache.RequestEvent{Node: r.Node, Chunk: r.Chunk})
		}
		if _, err := sys.Report(batch); err != nil {
			return faircache.AdaptiveStats{}, gini, err
		}
		done += n
		gini.add(sys.Gini())
		if adapt && done%sc.AdaptEvery == 0 && done < sc.Requests {
			if _, err := sys.Adapt(context.Background()); err != nil {
				return faircache.AdaptiveStats{}, gini, err
			}
		}
	}
	return sys.Stats(), gini, nil
}
