package eval

import (
	"context"
	"fmt"
	"time"

	faircache "repro"

	"repro/internal/metrics"
	"repro/internal/pool"
)

// Fig1 reproduces Fig. 1: the per-node difference in stored-chunk counts
// between each algorithm and the optimal reference on a grid network.
type Fig1 struct {
	// Rows and Cols describe the grid (paper: 6×6).
	Rows, Cols int
	// Producer is the data producer (paper: node 9).
	Producer int
	// Reference holds the optimal (Brtf) per-node chunk counts.
	Reference []int
	// ReferenceOptimal reports whether the reference search completed
	// exhaustively (false when a budget truncated it).
	ReferenceOptimal bool
	// Diff[alg][i] = counts(alg)[i] − Reference[i].
	Diff map[faircache.Algorithm][]int
}

// RunFig1 executes the Fig. 1 experiment on a rows×cols grid.
func RunFig1(rows, cols int, sc Scenario) (*Fig1, error) {
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	producer := sc.producerOn(topo)
	ref, err := Run(faircache.AlgorithmOptimal, topo, producer, sc.Chunks, sc.options())
	if err != nil {
		return nil, fmt.Errorf("fig1 reference: %w", err)
	}
	out := &Fig1{
		Rows: rows, Cols: cols,
		Producer:         producer,
		Reference:        ref.Counts,
		ReferenceOptimal: ref.ProvenOptimal,
		Diff:             make(map[faircache.Algorithm][]int, len(Algorithms)),
	}
	for _, alg := range Algorithms {
		res, err := Run(alg, topo, producer, sc.Chunks, sc.options())
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", alg, err)
		}
		diff, err := metrics.DistributionDiff(res.Counts, ref.Counts)
		if err != nil {
			return nil, err
		}
		out.Diff[alg] = diff
	}
	return out, nil
}

// CostRow is one network size's total contention cost per algorithm
// (Figs. 2 and 4).
type CostRow struct {
	// Nodes is the network size.
	Nodes int
	// Total[alg] is the evaluated contention cost (access +
	// dissemination).
	Total map[faircache.Algorithm]float64
	// Optimal is the Brtf cost when computed (small networks only; 0
	// otherwise).
	Optimal float64
	// OptimalProven reports exhaustive completion of the Brtf search.
	OptimalProven bool
}

// RunFig2Small reproduces the small-network half of Fig. 2: total
// contention cost on square grids including the optimal reference.
func RunFig2Small(sides []int, sc Scenario) ([]CostRow, error) {
	var rows []CostRow
	for _, side := range sides {
		topo, err := faircache.Grid(side, side)
		if err != nil {
			return nil, err
		}
		producer := sc.producerOn(topo)
		row := CostRow{Nodes: side * side, Total: map[faircache.Algorithm]float64{}}
		for _, alg := range Algorithms {
			cost, err := Cost(alg, topo, producer, sc.Chunks, sc.options())
			if err != nil {
				return nil, fmt.Errorf("fig2 %s on %dx%d: %w", alg, side, side, err)
			}
			row.Total[alg] = cost
		}
		ref, err := Run(faircache.AlgorithmOptimal, topo, producer, sc.Chunks, sc.options())
		if err != nil {
			return nil, fmt.Errorf("fig2 optimal on %dx%d: %w", side, side, err)
		}
		refCost, err := ref.ContentionCost()
		if err != nil {
			return nil, err
		}
		row.Optimal = refCost.Total()
		row.OptimalProven = ref.ProvenOptimal
		rows = append(rows, row)
	}
	return rows, nil
}

// RunFig2Large reproduces the large-network half of Fig. 2 (100–255
// nodes), where brute force is infeasible.
func RunFig2Large(sides []int, sc Scenario) ([]CostRow, error) {
	var rows []CostRow
	for _, side := range sides {
		topo, err := faircache.Grid(side, side)
		if err != nil {
			return nil, err
		}
		producer := sc.producerOn(topo)
		row := CostRow{Nodes: side * side, Total: map[faircache.Algorithm]float64{}}
		for _, alg := range Algorithms {
			cost, err := Cost(alg, topo, producer, sc.Chunks, sc.options())
			if err != nil {
				return nil, fmt.Errorf("fig2 %s on %dx%d: %w", alg, side, side, err)
			}
			row.Total[alg] = cost
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig3Row is the distributed algorithm's cost under one hop limit.
type Fig3Row struct {
	HopLimit      int
	Access        float64
	Dissemination float64
}

// Total returns the row's total contention cost.
func (r Fig3Row) Total() float64 { return r.Access + r.Dissemination }

// RunFig3 reproduces Fig. 3: the distributed algorithm's contention cost
// under hop limits 1..maxK on a rows×cols grid.
func RunFig3(rows, cols, maxK int, sc Scenario) ([]Fig3Row, error) {
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	producer := sc.producerOn(topo)
	var out []Fig3Row
	for k := 1; k <= maxK; k++ {
		opts := sc.options()
		opts.HopLimit = k
		res, err := Run(faircache.AlgorithmDistributed, topo, producer, sc.Chunks, opts)
		if err != nil {
			return nil, fmt.Errorf("fig3 k=%d: %w", k, err)
		}
		report, err := res.ContentionCost()
		if err != nil {
			return nil, err
		}
		out = append(out, Fig3Row{HopLimit: k, Access: report.Access, Dissemination: report.Dissemination})
	}
	return out, nil
}

// RunFig4 reproduces Fig. 4: contention cost on random networks of
// growing size, averaged over the scenario's seeds.
func RunFig4(sizes []int, sc Scenario) ([]CostRow, error) {
	if len(sc.Seeds) == 0 {
		return nil, fmt.Errorf("fig4: no seeds")
	}
	// Each seed runs on its own topology and state; results merge by
	// seed index, so the rows do not depend on completion order.
	pl := pool.New(0)
	defer pl.Close()
	var rows []CostRow
	for _, n := range sizes {
		perSeed := make([]map[faircache.Algorithm]float64, len(sc.Seeds))
		err := pl.ForEachErr(context.Background(), len(sc.Seeds), func(idx int) error {
			seed := sc.Seeds[idx]
			topo, err := faircache.Random(n, seed)
			if err != nil {
				return err
			}
			producer := topo.CentralNode()
			totals := map[faircache.Algorithm]float64{}
			for _, alg := range Algorithms {
				cost, err := Cost(alg, topo, producer, sc.Chunks, sc.options())
				if err != nil {
					return fmt.Errorf("fig4 %s n=%d seed=%d: %w", alg, n, seed, err)
				}
				totals[alg] = cost
			}
			perSeed[idx] = totals
			return nil
		})
		if err != nil {
			return nil, err
		}
		row := CostRow{Nodes: n, Total: map[faircache.Algorithm]float64{}}
		for _, totals := range perSeed {
			for alg, cost := range totals {
				row.Total[alg] += cost
			}
		}
		for alg := range row.Total {
			row.Total[alg] /= float64(len(sc.Seeds))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5Row is the single-chunk placement time per algorithm at one size.
type Fig5Row struct {
	Nodes int
	// Elapsed[alg] is the wall-clock placement time for one chunk.
	Elapsed map[faircache.Algorithm]time.Duration
}

// RunFig5 reproduces Fig. 5: running time to place one chunk on growing
// grids. Absolute values differ from the paper's Python timings; the
// claim under test is the relative ordering and growth.
func RunFig5(sides []int, sc Scenario) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, side := range sides {
		topo, err := faircache.Grid(side, side)
		if err != nil {
			return nil, err
		}
		producer := sc.producerOn(topo)
		row := Fig5Row{Nodes: side * side, Elapsed: map[faircache.Algorithm]time.Duration{}}
		for _, alg := range Algorithms {
			if alg == faircache.AlgorithmDistributed {
				continue // the paper excludes Dist from timing (message-based)
			}
			elapsed, err := timeIt(func() error {
				_, err := Run(alg, topo, producer, 1, sc.options())
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig5 %s on %dx%d: %w", alg, side, side, err)
			}
			row.Elapsed[alg] = elapsed
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6 reproduces Fig. 6: the storage concentration curve (fraction of
// all data held by the k most-loaded nodes) and the 75-percentile
// fairness per algorithm.
type Fig6 struct {
	// Curve[alg][k-1] is the cumulative data fraction on the top-k nodes.
	Curve map[faircache.Algorithm][]float64
	// Percentile75[alg] is the paper's 75-percentile fairness.
	Percentile75 map[faircache.Algorithm]float64
}

// RunFig6 executes the Fig. 6 experiment on a rows×cols grid.
func RunFig6(rows, cols int, sc Scenario) (*Fig6, error) {
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	producer := sc.producerOn(topo)
	out := &Fig6{
		Curve:        map[faircache.Algorithm][]float64{},
		Percentile75: map[faircache.Algorithm]float64{},
	}
	for _, alg := range Algorithms {
		res, err := Run(alg, topo, producer, sc.Chunks, sc.options())
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", alg, err)
		}
		out.Curve[alg] = res.StorageCurve()
		pf, err := res.PercentileFairness(75)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s percentile: %w", alg, err)
		}
		out.Percentile75[alg] = pf
	}
	return out, nil
}

// GiniRow is one network size's Gini coefficient per algorithm (Fig. 7).
type GiniRow struct {
	Nodes int
	Gini  map[faircache.Algorithm]float64
}

// RunFig7Grid reproduces Fig. 7(a): Gini coefficient on growing grids.
func RunFig7Grid(sides []int, sc Scenario) ([]GiniRow, error) {
	var rows []GiniRow
	for _, side := range sides {
		topo, err := faircache.Grid(side, side)
		if err != nil {
			return nil, err
		}
		producer := sc.producerOn(topo)
		row := GiniRow{Nodes: side * side, Gini: map[faircache.Algorithm]float64{}}
		for _, alg := range Algorithms {
			res, err := Run(alg, topo, producer, sc.Chunks, sc.options())
			if err != nil {
				return nil, fmt.Errorf("fig7 %s on %dx%d: %w", alg, side, side, err)
			}
			row.Gini[alg] = res.Gini()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunFig7Random reproduces Fig. 7(b): Gini coefficient on random
// networks, averaged over the scenario's seeds.
func RunFig7Random(sizes []int, sc Scenario) ([]GiniRow, error) {
	if len(sc.Seeds) == 0 {
		return nil, fmt.Errorf("fig7: no seeds")
	}
	// Each seed runs on its own topology and state; results merge by
	// seed index, so the rows do not depend on completion order.
	pl := pool.New(0)
	defer pl.Close()
	var rows []GiniRow
	for _, n := range sizes {
		perSeed := make([]map[faircache.Algorithm]float64, len(sc.Seeds))
		err := pl.ForEachErr(context.Background(), len(sc.Seeds), func(idx int) error {
			seed := sc.Seeds[idx]
			topo, err := faircache.Random(n, seed)
			if err != nil {
				return err
			}
			producer := topo.CentralNode()
			ginis := map[faircache.Algorithm]float64{}
			for _, alg := range Algorithms {
				res, err := Run(alg, topo, producer, sc.Chunks, sc.options())
				if err != nil {
					return fmt.Errorf("fig7 %s n=%d seed=%d: %w", alg, n, seed, err)
				}
				ginis[alg] = res.Gini()
			}
			perSeed[idx] = ginis
			return nil
		})
		if err != nil {
			return nil, err
		}
		row := GiniRow{Nodes: n, Gini: map[faircache.Algorithm]float64{}}
		for _, ginis := range perSeed {
			for alg, g := range ginis {
				row.Gini[alg] += g
			}
		}
		for alg := range row.Gini {
			row.Gini[alg] /= float64(len(sc.Seeds))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Row is the accumulated contention cost with a growing number of
// distinct chunks (Fig. 8).
type Fig8Row struct {
	Chunks int
	Total  map[faircache.Algorithm]float64
}

// RunFig8 reproduces Fig. 8 on a rows×cols grid: total contention cost as
// the number of distinct chunks grows 1..maxChunks (capacity stays at the
// scenario's value, so baselines overflow to a second node set past
// capacity — the discontinuity the paper highlights).
func RunFig8(rows, cols, maxChunks int, sc Scenario) ([]Fig8Row, error) {
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	producer := sc.producerOn(topo)
	var out []Fig8Row
	for q := 1; q <= maxChunks; q++ {
		row := Fig8Row{Chunks: q, Total: map[faircache.Algorithm]float64{}}
		for _, alg := range Algorithms {
			cost, err := Cost(alg, topo, producer, q, sc.options())
			if err != nil {
				return nil, fmt.Errorf("fig8 %s q=%d: %w", alg, q, err)
			}
			row.Total[alg] = cost
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig9 reproduces Fig. 9: the per-chunk contention cost of a 10-chunk
// placement (per-chunk fairness — chunks of one data item should cost
// about the same or retrieval completion is delayed by the worst chunk).
type Fig9 struct {
	// PerChunk[alg][n] is chunk n's access + dissemination cost.
	PerChunk map[faircache.Algorithm][]float64
}

// RunFig9 executes the Fig. 9 experiment on a rows×cols grid.
func RunFig9(rows, cols, chunks int, sc Scenario) (*Fig9, error) {
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	producer := sc.producerOn(topo)
	out := &Fig9{PerChunk: map[faircache.Algorithm][]float64{}}
	for _, alg := range Algorithms {
		res, err := Run(alg, topo, producer, chunks, sc.options())
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", alg, err)
		}
		report, err := res.ContentionCost()
		if err != nil {
			return nil, err
		}
		out.PerChunk[alg] = report.PerChunk
	}
	return out, nil
}

// Table2 reproduces TABLE II / Sec. IV-D: distributed protocol message
// counts per type, with the O(QN + N²) bound check.
type Table2 struct {
	Nodes, Chunks int
	// Counts per message kind.
	Counts map[string]int
	// Total message count.
	Total int
	// Bound is the concrete O(QN + N²) budget used for the check.
	Bound int
	// WithinBound reports Total <= Bound.
	WithinBound bool
}

// RunTable2 executes the message-accounting experiment on a grid.
func RunTable2(rows, cols int, sc Scenario) (*Table2, error) {
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	producer := sc.producerOn(topo)
	res, err := Run(faircache.AlgorithmDistributed, topo, producer, sc.Chunks, sc.options())
	if err != nil {
		return nil, err
	}
	n := topo.NumNodes()
	total := 0
	for _, v := range res.Messages {
		total += v
	}
	// The constant folds per-flood fan-out on bounded-degree topologies.
	bound := 40 * (sc.Chunks*n + n*n)
	return &Table2{
		Nodes:       n,
		Chunks:      sc.Chunks,
		Counts:      res.Messages,
		Total:       total,
		Bound:       bound,
		WithinBound: total <= bound,
	}, nil
}
