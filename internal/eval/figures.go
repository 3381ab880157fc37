package eval

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	faircache "repro"

	"repro/internal/metrics"
	"repro/internal/pool"
)

// point is one placement configuration of a figure: every algorithm
// that runs on it shares its Solver, and so one cost model.
type point struct {
	solver   *faircache.Solver
	producer int
	chunks   int
}

// onGrid returns a point on a fresh rows×cols grid with the scenario's
// producer.
func (sc Scenario) onGrid(rows, cols, chunks int) (point, error) {
	topo, err := faircache.Grid(rows, cols)
	if err != nil {
		return point{}, err
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		return point{}, err
	}
	return point{solver, sc.producerOn(topo), chunks}, nil
}

// run solves the point with one algorithm.
func (p point) run(alg faircache.Algorithm, opts *faircache.Options) (*faircache.Result, error) {
	res, err := p.solver.Solve(context.Background(), faircache.Request{
		Producer:  p.producer,
		Chunks:    p.chunks,
		Algorithm: alg,
		Options:   opts,
	})
	if err != nil {
		return nil, fmt.Errorf("%s on %d nodes, %d chunks: %w", alg, p.solver.Topology().NumNodes(), p.chunks, err)
	}
	return res, nil
}

// solve runs each algorithm in turn on the point's Solver.
func (p point) solve(algs []faircache.Algorithm, opts *faircache.Options) ([]*faircache.Result, error) {
	out := make([]*faircache.Result, len(algs))
	for i, alg := range algs {
		res, err := p.run(alg, opts)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// headers returns first followed by the algorithms' names.
func headers(first []string, algs []faircache.Algorithm) []string {
	for _, a := range algs {
		first = append(first, a.String())
	}
	return first
}

// measure is the quantity a sweep reads off each placement, and how it
// prints.
type measure struct {
	format string
	of     func(*faircache.Result) (float64, error)
}

var (
	totalCost = measure{"%.0f", func(r *faircache.Result) (float64, error) {
		report, err := r.ContentionCost()
		if err != nil {
			return 0, err
		}
		return report.Total(), nil
	}}
	gini = measure{"%.3f", func(r *faircache.Result) (float64, error) { return r.Gini(), nil }}
)

// axis is the rows of a sweep: the first column's header and labels, and
// each row's placements, one per seed.
type axis struct {
	header string
	labels []int
	seeds  int
	at     func(row, seed int) (point, error)
}

// grids is one row per square grid, labelled by its node count.
func (sc Scenario) grids(sides []int) axis {
	a := axis{header: "nodes", seeds: 1, at: func(row, _ int) (point, error) {
		return sc.onGrid(sides[row], sides[row], sc.Chunks)
	}}
	for _, side := range sides {
		a.labels = append(a.labels, side*side)
	}
	return a
}

// randoms is one row per random-network size, one network per seed,
// each with its central node as the producer.
func (sc Scenario) randoms(sizes []int) axis {
	return axis{header: "nodes", labels: sizes, seeds: len(sc.Seeds), at: func(row, seed int) (point, error) {
		topo, err := faircache.Random(sizes[row], sc.Seeds[seed])
		if err != nil {
			return point{}, err
		}
		solver, err := faircache.NewSolver(topo)
		if err != nil {
			return point{}, err
		}
		return point{solver, topo.CentralNode(), sc.Chunks}, nil
	}}
}

// sweep is the per-algorithm figure: one row per label of the axis, whose
// cells are each algorithm's measure averaged over the row's seeds
// (solved in parallel; each seed's placement runs on its own topology,
// and results merge by seed index, so the rows do not depend on
// completion order). withBrtf also runs the exact reference on each
// placement and closes the row with its measure and whether its search
// was proven optimal (of the first seed).
func (sc Scenario) sweep(title string, a axis, m measure, withBrtf bool) (*Table, error) {
	algs := Algorithms
	if withBrtf {
		algs = append(slices.Clip(algs), faircache.AlgorithmOptimal)
	}
	t := &Table{Title: title, Header: headers([]string{a.header}, algs)}
	if withBrtf {
		t.Header = append(t.Header, "Brtf proven")
	}
	pl := pool.New(0)
	defer pl.Close()
	for row, label := range a.labels {
		vals := make([][]float64, a.seeds)
		proven := make([]bool, a.seeds)
		err := pl.ForEachErr(context.Background(), a.seeds, func(seed int) error {
			p, err := a.at(row, seed)
			if err != nil {
				return err
			}
			res, err := p.solve(algs, sc.options())
			if err != nil {
				return err
			}
			vals[seed] = make([]float64, len(res))
			for i, r := range res {
				if vals[seed][i], err = m.of(r); err != nil {
					return err
				}
			}
			proven[seed] = res[len(res)-1].ProvenOptimal
			return nil
		})
		if err != nil {
			return nil, err
		}
		cells := []Cell{num("%.0f", float64(label))}
		for i := range algs {
			sum := 0.0
			for _, v := range vals {
				sum += v[i]
			}
			cells = append(cells, num(m.format, sum/float64(a.seeds)))
		}
		if withBrtf {
			cells = append(cells, Cell{Text: strconv.FormatBool(proven[0])})
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// RunFig1 reproduces Fig. 1 on a rows×cols grid: each node's exact-search
// (Brtf) chunk count and each algorithm's difference from it, with the
// total absolute difference per algorithm after the table.
func RunFig1(rows, cols int, sc Scenario) (*Table, error) {
	p, err := sc.onGrid(rows, cols, sc.Chunks)
	if err != nil {
		return nil, err
	}
	res, err := p.solve(append([]faircache.Algorithm{faircache.AlgorithmOptimal}, Algorithms...), sc.options())
	if err != nil {
		return nil, err
	}
	ref := res[0]
	t := &Table{
		Title:  fmt.Sprintf("Fig. 1 — per-node chunk-count difference vs optimal (%d×%d grid, producer %d)", rows, cols, p.producer),
		Before: []string{fmt.Sprintf("reference proven optimal: %v (budget %d nodes, width %d)", ref.ProvenOptimal, sc.OptimalBudget, sc.OptimalWidth)},
		Header: headers([]string{"node", "Brtf count"}, Algorithms),
	}
	for v, c := range ref.Counts {
		t.Rows = append(t.Rows, []Cell{num("%.0f", float64(v)), num("%.0f", float64(c))})
	}
	for i, r := range res[1:] {
		diff, err := metrics.DistributionDiff(r.Counts, ref.Counts)
		if err != nil {
			return nil, err
		}
		total := 0
		for v, d := range diff {
			t.Rows[v] = append(t.Rows[v], num("%+.0f", float64(d)))
			total += max(d, -d)
		}
		t.After = append(t.After, fmt.Sprintf("total |diff| %s: %d", Algorithms[i], total))
	}
	return t, nil
}

// RunFig2Small reproduces the small-network half of Fig. 2: total
// contention cost on square grids, with the exact-search reference.
func RunFig2Small(sides []int, sc Scenario) (*Table, error) {
	return sc.sweep("Fig. 2(a) — total contention cost, small grids (with Brtf)", sc.grids(sides), totalCost, true)
}

// RunFig2Large reproduces the large-network half of Fig. 2, where the
// exact search is infeasible. The title names the node counts of the
// smallest and largest grid (sides in increasing order).
func RunFig2Large(sides []int, sc Scenario) (*Table, error) {
	if len(sides) == 0 {
		return nil, fmt.Errorf("%w: no grid sides", faircache.ErrBadArgument)
	}
	nodes := fmt.Sprint(sides[0] * sides[0])
	if last := sides[len(sides)-1]; last != sides[0] {
		nodes += fmt.Sprintf("–%d", last*last)
	}
	return sc.sweep("Fig. 2(b) — total contention cost, large grids ("+nodes+" nodes)", sc.grids(sides), totalCost, false)
}

// RunFig3 reproduces Fig. 3: the distributed algorithm's contention cost
// under hop limits 1..maxK on a rows×cols grid.
func RunFig3(rows, cols, maxK int, sc Scenario) (*Table, error) {
	p, err := sc.onGrid(rows, cols, sc.Chunks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. 3 — distributed algorithm contention cost vs hop limit (%d×%d grid)", rows, cols),
		Header: []string{"hop limit", "access", "dissemination", "total"},
	}
	for k := 1; k <= maxK; k++ {
		opts := sc.options()
		opts.HopLimit = k
		res, err := p.run(faircache.AlgorithmDistributed, opts)
		if err != nil {
			return nil, err
		}
		report, err := res.ContentionCost()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []Cell{
			num("%.0f", float64(k)),
			num("%.0f", report.Access),
			num("%.0f", report.Dissemination),
			num("%.0f", report.Total()),
		})
	}
	return t, nil
}

// RunFig4 reproduces Fig. 4: contention cost on random networks of
// growing size, averaged over the scenario's seeds.
func RunFig4(sizes []int, sc Scenario) (*Table, error) {
	if len(sc.Seeds) == 0 {
		return nil, fmt.Errorf("fig4: no seeds")
	}
	return sc.sweep("Fig. 4 — total contention cost on random networks (avg over seeds)", sc.randoms(sizes), totalCost, false)
}

// RunFig5 reproduces Fig. 5: running time to place one chunk on growing
// grids, each placement on a fresh Solver (the figure times a cold
// placement; the paper excludes the message-based Dist). Absolute values
// differ from the paper's Python timings; the claim under test is the
// relative ordering and growth.
func RunFig5(sides []int, sc Scenario) (*Table, error) {
	var algs []faircache.Algorithm
	for _, alg := range Algorithms {
		if alg != faircache.AlgorithmDistributed {
			algs = append(algs, alg)
		}
	}
	t := &Table{Title: "Fig. 5 — running time to place one chunk on grids", Header: headers([]string{"nodes"}, algs)}
	for _, side := range sides {
		cells := []Cell{num("%.0f", float64(side*side))}
		for _, alg := range algs {
			p, err := sc.onGrid(side, side, 1)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := p.run(alg, sc.options()); err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			cells = append(cells, Cell{Text: elapsed.Round(10 * time.Microsecond).String(), Num: elapsed.Seconds() * 1000})
		}
		t.Rows = append(t.Rows, cells)
	}
	return t, nil
}

// RunFig6 reproduces Fig. 6 on a rows×cols grid: how many of the most
// loaded nodes hold 25/50/75/100% of all cached data, and the
// 75-percentile fairness, per algorithm.
func RunFig6(rows, cols int, sc Scenario) (*Table, error) {
	p, err := sc.onGrid(rows, cols, sc.Chunks)
	if err != nil {
		return nil, err
	}
	res, err := p.solve(Algorithms, sc.options())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. 6 — storage concentration (%d×%d grid) and 75-percentile fairness", rows, cols),
		Header: []string{"algorithm", "nodes for 25%", "50%", "75%", "100%", "75-pct fairness"},
	}
	for i, r := range res {
		curve := r.StorageCurve()
		cells := []Cell{{Text: Algorithms[i].String()}}
		for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
			k := 0
			for n, v := range curve {
				if v >= frac-1e-9 {
					k = n + 1
					break
				}
			}
			cells = append(cells, num("%.0f", float64(k)))
		}
		pf, err := r.PercentileFairness(75)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append(cells, num("%.1f%%", 100*pf)))
	}
	return t, nil
}

// RunFig7Grid reproduces Fig. 7(a): Gini coefficient on growing grids.
func RunFig7Grid(sides []int, sc Scenario) (*Table, error) {
	return sc.sweep("Fig. 7(a) — Gini coefficient on grids", sc.grids(sides), gini, false)
}

// RunFig7Random reproduces Fig. 7(b): Gini coefficient on random
// networks, averaged over the scenario's seeds.
func RunFig7Random(sizes []int, sc Scenario) (*Table, error) {
	if len(sc.Seeds) == 0 {
		return nil, fmt.Errorf("fig7: no seeds")
	}
	return sc.sweep("Fig. 7(b) — Gini coefficient on random networks (avg over seeds)", sc.randoms(sizes), gini, false)
}

// RunFig8 reproduces Fig. 8 on a rows×cols grid: total contention cost as
// the number of distinct chunks grows 1..maxChunks (capacity stays at the
// scenario's value, so baselines overflow to a second node set past
// capacity — the discontinuity the paper highlights).
func RunFig8(rows, cols, maxChunks int, sc Scenario) (*Table, error) {
	p, err := sc.onGrid(rows, cols, 0)
	if err != nil {
		return nil, err
	}
	a := axis{header: "chunks", seeds: 1, at: func(row, _ int) (point, error) {
		q := p
		q.chunks = row + 1
		return q, nil
	}}
	for q := 1; q <= maxChunks; q++ {
		a.labels = append(a.labels, q)
	}
	return sc.sweep(fmt.Sprintf("Fig. 8 — accumulated contention cost vs distinct chunks (%d×%d grid)", rows, cols), a, totalCost, false)
}

// RunFig9 reproduces Fig. 9 on a rows×cols grid: each chunk's access +
// dissemination cost (per-chunk fairness — chunks of one data item
// should cost about the same, or retrieval waits for the worst chunk).
func RunFig9(rows, cols, chunks int, sc Scenario) (*Table, error) {
	p, err := sc.onGrid(rows, cols, chunks)
	if err != nil {
		return nil, err
	}
	res, err := p.solve(Algorithms, sc.options())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig. 9 — per-chunk contention cost, %d chunks (%d×%d grid)", chunks, rows, cols),
		Header: headers([]string{"chunk"}, Algorithms),
	}
	for n := 1; n <= chunks; n++ {
		t.Rows = append(t.Rows, []Cell{num("%.0f", float64(n))})
	}
	for _, r := range res {
		report, err := r.ContentionCost()
		if err != nil {
			return nil, err
		}
		for n, c := range report.PerChunk {
			t.Rows[n] = append(t.Rows[n], num("%.0f", c))
		}
	}
	return t, nil
}

// RunTable2 reproduces TABLE II / Sec. IV-D on a rows×cols grid: the
// distributed protocol's message counts per type and in total, with the
// O(QN + N²) bound check after the table.
func RunTable2(rows, cols int, sc Scenario) (*Table, error) {
	p, err := sc.onGrid(rows, cols, sc.Chunks)
	if err != nil {
		return nil, err
	}
	res, err := p.run(faircache.AlgorithmDistributed, sc.options())
	if err != nil {
		return nil, err
	}
	msgs := res.Messages
	kinds := make([]string, 0, len(msgs))
	for k := range msgs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	t := &Table{
		Title:  fmt.Sprintf("TABLE II / Sec. IV-D — distributed protocol message counts (%d×%d grid)", rows, cols),
		Header: []string{"message", "count"},
	}
	total := 0
	for _, k := range kinds {
		t.Rows = append(t.Rows, []Cell{{Text: k}, num("%.0f", float64(msgs[k]))})
		total += msgs[k]
	}
	t.Rows = append(t.Rows, []Cell{{Text: "total"}, num("%.0f", float64(total))})
	// The constant folds per-flood fan-out on bounded-degree topologies.
	n := rows * cols
	bound := 40 * (sc.Chunks*n + n*n)
	t.After = []string{fmt.Sprintf("O(QN+N²) bound: %d messages ≤ %d: %v", total, bound, total <= bound)}
	return t, nil
}

// RunPhases runs one explain'd Appx solve in the Fig. 1 configuration on
// a rows×cols grid and breaks its wall-clock down by trace phase
// (cost-model build, ConFL dual growth, Steiner connection, per-chunk
// placement), with each phase's summed counters.
func RunPhases(rows, cols int, sc Scenario) (*Table, error) {
	p, err := sc.onGrid(rows, cols, sc.Chunks)
	if err != nil {
		return nil, err
	}
	res, err := p.run(faircache.AlgorithmApprox, &faircache.Options{Capacity: sc.Capacity, Explain: true})
	if err != nil {
		return nil, err
	}
	rep := res.Trace
	if rep == nil {
		return nil, fmt.Errorf("explain solve returned no trace")
	}
	t := &Table{
		Title:  "Phase breakdown — one explain'd Appx solve (Fig. 1 configuration)",
		Before: []string{fmt.Sprintf("trace %s: %d spans, %.2f ms total", rep.TraceID, rep.Spans, rep.TotalMs)},
		Header: []string{"phase", "spans", "total ms", "% of solve", "counters"},
		After:  []string{"Phases nest (a chunk span contains its confl and steiner spans), so percentages do not sum to 100."},
	}
	for _, ph := range rep.Phases {
		counters := make([]string, 0, len(ph.Counters))
		for k, v := range ph.Counters {
			counters = append(counters, fmt.Sprintf("%s=%d", k, v))
		}
		sort.Strings(counters)
		t.Rows = append(t.Rows, []Cell{
			{Text: ph.Phase},
			num("%.0f", float64(ph.Count)),
			num("%.3f", ph.TotalMs),
			num("%.1f%%", 100*ph.TotalMs/rep.TotalMs),
			{Text: strings.Join(counters, ", ")},
		})
	}
	return t, nil
}
