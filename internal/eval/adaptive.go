package eval

import (
	"context"
	"fmt"

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

// AdaptiveRow reports one policy's replay outcome.
type AdaptiveRow struct {
	// Policy names the caching policy ("static", "lru", "adaptive").
	Policy string
	// HitRate is the fraction of requests served by a cache copy within
	// HitRadius hops; CacheRate the fraction served by any cache copy.
	HitRate   float64
	CacheRate float64
	// MeanCost and P99Cost summarize the hop-distance retrieval cost.
	MeanCost float64
	P99Cost  float64
	// GiniMean, GiniFinal and GiniMax summarize the storage-fairness Gini
	// coefficient sampled every SampleEvery requests.
	GiniMean  float64
	GiniFinal float64
	GiniMax   float64
	// Evictions, Adaptations and CopiesPlaced count the policy's work.
	Evictions    int64
	Adaptations  int64
	CopiesPlaced int64
	// Ms is the replay wall time.
	Ms float64
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
	sum   float64
	max   float64
	last  float64
	count int
}

func (g *giniTrack) add(v float64) {
	g.sum += v
	if v > g.max {
		g.max = v
	}
	g.last = v
	g.count++
}

func (g *giniTrack) fill(row *AdaptiveRow) {
	if g.count > 0 {
		row.GiniMean = g.sum / float64(g.count)
	}
	row.GiniFinal = g.last
	row.GiniMax = g.max
}

// RunAdaptive replays the scenario's request trace under three policies —
// the static fair placement (seeded once, never adapted), a naive
// cooperative LRU (insert-on-miss at the requester, per-node LRU
// replacement, no placement intelligence), and the adaptive system
// (static seed + periodic demand-driven adaptation) — and reports
// hit-rate, retrieval cost and fairness-over-time per policy. All three
// policies serve requests by the same rule (nearest copy network-wide,
// local hit within HitRadius hops), so the rows differ only by placement
// policy.
func RunAdaptive(sc AdaptiveScenario) ([]AdaptiveRow, error) {
	sc = sc.withDefaults()
	topo, err := faircache.Grid(sc.Rows, sc.Cols)
	if err != nil {
		return nil, err
	}
	producer := topo.CentralNode()

	rows := make([]AdaptiveRow, 0, 3)
	for _, policy := range []string{"static", "lru", "adaptive"} {
		var row AdaptiveRow
		ms, err := timeIt(func() error {
			r, err := sc.runPolicy(topo, producer, policy)
			row = r
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("adaptive replay %q: %w", policy, err)
		}
		row.Ms = float64(ms.Microseconds()) / 1000
		rows = append(rows, row)
	}
	return rows, nil
}

func (sc AdaptiveScenario) runPolicy(topo *faircache.Topology, producer int, policy string) (AdaptiveRow, error) {
	if policy == "lru" {
		return sc.runNaiveLRU(topo, producer)
	}
	trace, err := sim.NewTrace(sc.traceSpec(producer))
	if err != nil {
		return AdaptiveRow{}, err
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		return AdaptiveRow{}, err
	}
	sys, err := solver.NewAdaptive(context.Background(), producer, sc.Chunks, &faircache.AdaptiveOptions{
		Capacity:   sc.Capacity,
		HitRadius:  sc.HitRadius,
		TopDelta:   sc.TopDelta,
		CopyBudget: sc.CopyBudget,
	})
	if err != nil {
		return AdaptiveRow{}, err
	}

	var gini giniTrack
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
			return AdaptiveRow{}, err
		}
		done += n
		gini.add(sys.Gini())
		if policy == "adaptive" && done%sc.AdaptEvery == 0 && done < sc.Requests {
			if _, err := sys.Adapt(context.Background()); err != nil {
				return AdaptiveRow{}, err
			}
		}
	}
	st := sys.Stats()
	row := AdaptiveRow{
		Policy:       policy,
		HitRate:      st.HitRate,
		CacheRate:    st.CacheRate,
		MeanCost:     st.MeanCost,
		P99Cost:      st.P99Cost,
		Evictions:    st.Evictions,
		Adaptations:  st.Adaptations,
		CopiesPlaced: st.CopiesPlaced,
	}
	gini.fill(&row)
	return row, nil
}
