// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. V), one benchmark per experiment, plus ablation benches
// for the design knobs called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure bench reports, besides ns/op, custom metrics matching the
// figure's headline quantity (contention cost, Gini, fairness percentage,
// message counts), so a bench run doubles as a compact reproduction
// report.
package faircache_test

import (
	"context"
	"testing"

	faircache "repro"

	"repro/internal/eval"
)

// benchSolve runs the engine on the paper's large-grid regime (15×15
// nodes, 64 chunks). width 1 runs it at GOMAXPROCS 1, the sequential
// reference path; width 0 keeps the process's GOMAXPROCS. Comparing the
// two benchmarks measures the parallel engine's speedup on multi-core
// hosts (they coincide on a single-core runner).
func benchSolve(b *testing.B, width int) {
	if width > 0 {
		setWidth(b, width)
	}
	topo, err := faircache.Grid(15, 15)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		b.Fatal(err)
	}
	req := faircache.Request{
		Producer: 9,
		Chunks:   64,
		Options:  &faircache.Options{Capacity: 3},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Gini(), "gini")
		}
	}
}

func BenchmarkSolveSequential(b *testing.B) { benchSolve(b, 1) }
func BenchmarkSolveParallel(b *testing.B)   { benchSolve(b, 0) }

// BenchmarkSolvePartitioned runs the same large-grid regime through the
// geographic sharding path (Options.Partition): regions solve in parallel
// against per-region cost matrices and the boundary stitch reconciles the
// cut. Comparing against BenchmarkSolveParallel measures what sharding
// buys on a topology the global path can still handle; the reported
// matrix-cells metric is the per-solve peak-memory ratio (Σ nᵢ² / N²).
func BenchmarkSolvePartitioned(b *testing.B) {
	topo, err := faircache.Grid(15, 15)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		b.Fatal(err)
	}
	req := faircache.Request{
		Producer: 9,
		Chunks:   64,
		Options: &faircache.Options{
			Capacity:  3,
			Partition: &faircache.PartitionOptions{Regions: 9},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Gini(), "gini")
			b.ReportMetric(float64(res.Partition.MatrixCells)/float64(res.Partition.FullMatrixCells), "matrix-cells-ratio")
		}
	}
}

// BenchmarkContentionCost measures Result.ContentionCost alone on warm
// 15×15 results: the evaluation a placement daemon runs after every
// solve. The Appx case charges its 16 chunks the solve's own
// dissemination trees; the Hopc case builds every tree and reads the hop
// metric from the base model.
func BenchmarkContentionCost(b *testing.B) {
	for _, tc := range []struct {
		name string
		alg  faircache.Algorithm
	}{
		{"Appx15x15", faircache.AlgorithmApprox},
		{"Hopc15x15", faircache.AlgorithmHopCount},
	} {
		b.Run(tc.name, func(b *testing.B) {
			topo, err := faircache.Grid(15, 15)
			if err != nil {
				b.Fatal(err)
			}
			solver, err := faircache.NewSolver(topo)
			if err != nil {
				b.Fatal(err)
			}
			res, err := solver.Solve(context.Background(), faircache.Request{
				Producer:  9,
				Chunks:    16,
				Algorithm: tc.alg,
				Options:   &faircache.Options{Capacity: 3},
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.ContentionCost(); err != nil { // warm the hop matrix
				b.Fatal(err)
			}
			b.ResetTimer()
			var total float64
			for i := 0; i < b.N; i++ {
				report, err := res.ContentionCost()
				if err != nil {
					b.Fatal(err)
				}
				total = report.Total()
			}
			b.ReportMetric(total, "contention")
		})
	}
}

// benchScenario mirrors the paper's defaults with a budgeted exact search
// so Brtf-dependent figures stay tractable inside a benchmark loop.
func benchScenario() eval.Scenario {
	sc := eval.DefaultScenario()
	sc.OptimalBudget = 2000
	sc.OptimalWidth = 8
	return sc
}

func BenchmarkFig1ChunkDistribution6x6(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		fig, err := eval.RunFig1(6, 6, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			total := 0
			for _, d := range fig.Diff[faircache.AlgorithmApprox] {
				if d < 0 {
					total -= d
				} else {
					total += d
				}
			}
			b.ReportMetric(float64(total), "appx-total-|diff|")
		}
	}
}

func BenchmarkFig2SmallGridsWithOptimal(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunFig2Small([]int{3, 4}, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.Total[faircache.AlgorithmApprox]/last.Optimal, "appx/optimal-ratio")
		}
	}
}

func BenchmarkFig2LargeGrids(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunFig2Large([]int{10, 12}, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.Total[faircache.AlgorithmHopCount]/last.Total[faircache.AlgorithmApprox], "hopc/appx-ratio")
		}
	}
}

func BenchmarkFig3HopLimitSweep(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunFig3(6, 6, 4, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].Total()/rows[1].Total(), "k1/k2-cost-ratio")
		}
	}
}

func BenchmarkFig4RandomNetworks(b *testing.B) {
	sc := benchScenario()
	sc.Seeds = []int64{1, 2} // 2 seeds per op keeps the bench responsive
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunFig4([]int{20, 60}, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.Total[faircache.AlgorithmHopCount]/last.Total[faircache.AlgorithmApprox], "hopc/appx-ratio")
		}
	}
}

// BenchmarkFig5 measures the single-chunk placement time of each
// algorithm directly — the figure's own quantity is the benchmark metric.
func BenchmarkFig5PlaceOneChunkAppx(b *testing.B) { benchPlaceOne(b, faircache.AlgorithmApprox) }
func BenchmarkFig5PlaceOneChunkHopc(b *testing.B) { benchPlaceOne(b, faircache.AlgorithmHopCount) }
func BenchmarkFig5PlaceOneChunkCont(b *testing.B) { benchPlaceOne(b, faircache.AlgorithmContention) }

func benchPlaceOne(b *testing.B, alg faircache.Algorithm) {
	topo, err := faircache.Grid(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Run(alg, topo, 9, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6StorageConcentration(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		fig, err := eval.RunFig6(6, 6, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*fig.Percentile75[faircache.AlgorithmApprox], "appx-75pct-fairness-%")
			b.ReportMetric(100*fig.Percentile75[faircache.AlgorithmHopCount], "hopc-75pct-fairness-%")
		}
	}
}

func BenchmarkFig7GiniGrids(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunFig7Grid([]int{4, 6, 8}, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[1].Gini[faircache.AlgorithmApprox], "appx-gini-6x6")
		}
	}
}

func BenchmarkFig7GiniRandom(b *testing.B) {
	sc := benchScenario()
	sc.Seeds = []int64{1, 2}
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunFig7Random([]int{20, 60}, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[1].Gini[faircache.AlgorithmApprox], "appx-gini-60")
		}
	}
}

func BenchmarkFig8AccumulatedCost4x4(b *testing.B) { benchFig8(b, 4) }
func BenchmarkFig8AccumulatedCost8x8(b *testing.B) { benchFig8(b, 8) }

func benchFig8(b *testing.B, side int) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunFig8(side, side, 10, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.Total[faircache.AlgorithmContention]/last.Total[faircache.AlgorithmApprox], "cont/appx-at-10-chunks")
		}
	}
}

func BenchmarkFig9PerChunkCost4x4(b *testing.B) { benchFig9(b, 4) }
func BenchmarkFig9PerChunkCost6x6(b *testing.B) { benchFig9(b, 6) }

func benchFig9(b *testing.B, side int) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		fig, err := eval.RunFig9(side, side, 10, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			xs := fig.PerChunk[faircache.AlgorithmApprox]
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			b.ReportMetric(hi-lo, "appx-per-chunk-spread")
		}
	}
}

func BenchmarkTable2MessageCounts(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		tab, err := eval.RunTable2(6, 6, sc)
		if err != nil {
			b.Fatal(err)
		}
		if !tab.WithinBound {
			b.Fatalf("message bound violated: %d > %d", tab.Total, tab.Bound)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(tab.Total), "messages")
		}
	}
}

// --- Ablation benches for the DESIGN.md design choices. ---

// BenchmarkAblationAlphaStep sweeps U_α: a large step terminates faster
// but can pick fewer caching nodes (Sec. IV-B trade-off).
func BenchmarkAblationAlphaStep(b *testing.B) {
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, step := range []float64{0.5, 1, 2, 4} {
		b.Run(stepName(step), func(b *testing.B) {
			var lastGini float64
			for i := 0; i < b.N; i++ {
				res, err := runAlg(faircache.AlgorithmApprox, topo, 9, 5, &faircache.Options{AlphaStep: step, GammaStep: 2.5 * step})
				if err != nil {
					b.Fatal(err)
				}
				lastGini = res.Gini()
			}
			b.ReportMetric(lastGini, "gini")
		})
	}
}

// BenchmarkAblationSpanQuorum sweeps M: the SPAN quorum gates how many
// caches open per chunk.
func BenchmarkAblationSpanQuorum(b *testing.B) {
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{1, 2, 3, 4} {
		b.Run(quorumName(m), func(b *testing.B) {
			var distinct int
			for i := 0; i < b.N; i++ {
				res, err := runAlg(faircache.AlgorithmApprox, topo, 9, 5, &faircache.Options{SpanQuorum: m})
				if err != nil {
					b.Fatal(err)
				}
				distinct = res.DistinctCacheNodes()
			}
			b.ReportMetric(float64(distinct), "distinct-caches")
		})
	}
}

// BenchmarkAblationFairnessWeight compares the full objective against the
// contention-only ablation (fairness weight 0).
func BenchmarkAblationFairnessWeight(b *testing.B) {
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []float64{-1, 1, 4} { // -1 requests weight 0
		b.Run(weightName(w), func(b *testing.B) {
			var gini float64
			for i := 0; i < b.N; i++ {
				res, err := runAlg(faircache.AlgorithmApprox, topo, 9, 5, &faircache.Options{FairnessWeight: w})
				if err != nil {
					b.Fatal(err)
				}
				gini = res.Gini()
			}
			b.ReportMetric(gini, "gini")
		})
	}
}

func stepName(step float64) string {
	switch step {
	case 0.5:
		return "U=0.5"
	case 1:
		return "U=1"
	case 2:
		return "U=2"
	default:
		return "U=4"
	}
}

func quorumName(m int) string {
	return "M=" + string(rune('0'+m))
}

func weightName(w float64) string {
	switch {
	case w < 0:
		return "w=0"
	case w == 1:
		return "w=1"
	default:
		return "w=4"
	}
}

// BenchmarkAblationGreedyVsPrimalDual compares the guaranteed primal-dual
// ConFL solver against the greedy heuristic (related work [23]) on the
// paper's 6×6 scenario.
func BenchmarkAblationGreedyVsPrimalDual(b *testing.B) {
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, greedy := range []bool{false, true} {
		name := "primal-dual"
		if greedy {
			name = "greedy"
		}
		b.Run(name, func(b *testing.B) {
			var cost, gini float64
			for i := 0; i < b.N; i++ {
				res, err := runAlg(faircache.AlgorithmApprox, topo, 9, 5, &faircache.Options{GreedyConFL: greedy})
				if err != nil {
					b.Fatal(err)
				}
				report, err := res.ContentionCost()
				if err != nil {
					b.Fatal(err)
				}
				cost, gini = report.Total(), res.Gini()
			}
			b.ReportMetric(cost, "contention")
			b.ReportMetric(gini, "gini")
		})
	}
}

// BenchmarkAdaptReplay replays a 100k-request Zipf trace through the
// adaptive demand subsystem (seed, serve, periodic adaptation passes) on
// a 9×9 grid — the evaluation's CI-scale scenario. The reported hit-rate
// metric tracks the policy's steady-state quality alongside its cost.
func BenchmarkAdaptReplay(b *testing.B) {
	sc := eval.AdaptiveScenario{
		Rows: 9, Cols: 9,
		Chunks:     48,
		Requests:   100_000,
		AdaptEvery: 5_000,
		DriftEvery: -1,
	}
	var hitRate float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunAdaptive(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == "adaptive" {
				hitRate = r.HitRate
			}
		}
	}
	b.ReportMetric(hitRate, "hit-rate")
	b.ReportMetric(float64(sc.Requests*3)/float64(b.Elapsed().Seconds()*float64(b.N)+1e-9)/1e6, "Mreq/s")
}
