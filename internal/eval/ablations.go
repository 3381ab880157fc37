package eval

import (
	faircache "repro"
)

// RunAblations sweeps the design knobs called out in DESIGN.md §5 on the
// paper's 6×6 grid with a 10-chunk load (twice the capacity-5 default, so
// the fairness terms actually bite): SPAN quorum M, dual step U_α,
// fairness weight, greedy vs primal-dual ConFL, Steiner local search and,
// as an extension, battery fairness. All configurations share one Solver.
func RunAblations(sc Scenario) (*Table, error) {
	p, err := sc.onGrid(6, 6, 10)
	if err != nil {
		return nil, err
	}
	// Battery extension: drain the left half of the grid and show where
	// placement shifts.
	levels := make([]float64, 36)
	for i := range levels {
		levels[i] = 1
		if i%6 < 3 {
			levels[i] = 0.05
		}
	}
	configs := []struct {
		name string
		opts faircache.Options
	}{
		{name: "default (M=2, Uγ=2.5, w=1)"},
		{name: "quorum M=1", opts: faircache.Options{SpanQuorum: 1}},
		{name: "quorum M=3", opts: faircache.Options{SpanQuorum: 3}},
		{name: "quorum M=4", opts: faircache.Options{SpanQuorum: 4}},
		{name: "coarse step Uα=4", opts: faircache.Options{AlphaStep: 4, GammaStep: 10}},
		{name: "fine step Uα=0.25", opts: faircache.Options{AlphaStep: 0.25, GammaStep: 0.625}},
		{name: "fairness off (w=0)", opts: faircache.Options{FairnessWeight: -1}},
		{name: "fairness heavy (w=4)", opts: faircache.Options{FairnessWeight: 4}},
		{name: "greedy ConFL", opts: faircache.Options{GreedyConFL: true}},
		{name: "steiner local search", opts: faircache.Options{ImproveSteiner: true}},
		{name: "battery fairness (left half drained)", opts: faircache.Options{BatteryLevels: levels, BatteryWeight: 1}},
	}
	t := &Table{
		Title:  "Ablations — DESIGN.md §5 design knobs (6×6 grid, 10 chunks)",
		Header: []string{"configuration", "gini", "distinct caches", "total cost", "dissemination"},
	}
	for _, c := range configs {
		opts := c.opts
		opts.Capacity = sc.Capacity
		res, err := p.run(faircache.AlgorithmApprox, &opts)
		if err != nil {
			return nil, err
		}
		report, err := res.ContentionCost()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []Cell{
			{Text: c.name},
			num("%.3f", res.Gini()),
			num("%.0f", float64(res.DistinctCacheNodes())),
			num("%.0f", report.Total()),
			num("%.0f", report.Dissemination),
		})
	}
	return t, nil
}
