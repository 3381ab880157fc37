package eval

import (
	"fmt"
	"time"

	faircache "repro"
)

// PartitionedCase is one topology of the sharded-vs-global comparison.
type PartitionedCase struct {
	Label   string
	Topo    *faircache.Topology
	Regions int
}

// DefaultPartitionedCases returns the comparison's standard topologies:
// the paper's three network models at sizes where the global solve is
// still comfortable, so both paths can be measured.
func DefaultPartitionedCases() ([]PartitionedCase, error) {
	grid, err := faircache.Grid(12, 12)
	if err != nil {
		return nil, err
	}
	random, err := faircache.Random(120, 3)
	if err != nil {
		return nil, err
	}
	clustered, err := faircache.Clustered(6, 12, 11)
	if err != nil {
		return nil, err
	}
	return []PartitionedCase{
		{Label: "grid 12x12", Topo: grid, Regions: 4},
		{Label: "random 120", Topo: random, Regions: 4},
		{Label: "clustered 6x12", Topo: clustered, Regions: 3},
	}, nil
}

// RunPartitioned runs the sharded-vs-global comparison: each case is
// solved globally and with Options.Partition on one Solver, both
// placements are evaluated under the uniform replay metric, and the row
// reports the cost-error factor (sharded/global) beside the wall times,
// the copies the stitch pass dropped and the sharded path's summed
// per-region matrices against the global N².
func RunPartitioned(cases []PartitionedCase, sc Scenario) (*Table, error) {
	t := &Table{
		Title:  "Sharded solves — partitioned vs global (Options.Partition)",
		Header: []string{"topology", "nodes", "regions", "global cost", "sharded cost", "ratio", "global ms", "sharded ms", "dropped", "matrix cells vs N²"},
	}
	for _, c := range cases {
		solver, err := faircache.NewSolver(c.Topo)
		if err != nil {
			return nil, err
		}
		p := point{solver, sc.producerOn(c.Topo), sc.Chunks}
		sharded := *sc.options()
		sharded.Partition = &faircache.PartitionOptions{Regions: c.Regions}
		// Index 0 is the global solve, 1 the sharded one, whose report
		// part keeps.
		var costs, ms [2]float64
		var part *faircache.PartitionReport
		for i, opts := range []*faircache.Options{sc.options(), &sharded} {
			start := time.Now()
			res, err := p.run(faircache.AlgorithmApprox, opts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Label, err)
			}
			ms[i] = float64(time.Since(start).Microseconds()) / 1000
			report, err := res.ContentionCost()
			if err != nil {
				return nil, err
			}
			costs[i], part = report.Total(), res.Partition
		}
		t.Rows = append(t.Rows, []Cell{
			{Text: c.Label},
			num("%.0f", float64(c.Topo.NumNodes())),
			num("%.0f", float64(part.Regions)),
			num("%.0f", costs[0]),
			num("%.0f", costs[1]),
			num("%.3f", costs[1]/costs[0]),
			num("%.1f", ms[0]),
			num("%.1f", ms[1]),
			num("%.0f", float64(part.DroppedCopies)),
			num("%.1f%%", 100*float64(part.MatrixCells)/float64(part.FullMatrixCells)),
		})
	}
	return t, nil
}
