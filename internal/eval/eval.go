// Package eval is the experiment harness: one runner per table/figure of
// the paper's evaluation section (Sec. V), each driving the public
// faircache API exactly as a downstream user would and returning the
// figure as a Table. The cmd/experiments binary prints those tables, as
// recorded in EXPERIMENTS.md; the root bench_test.go wraps the same
// runners as benchmarks and reads their metrics from the tables' cells.
package eval

import (
	faircache "repro"
)

// Algorithms in the canonical presentation order of the paper's figures.
var Algorithms = []faircache.Algorithm{
	faircache.AlgorithmApprox,
	faircache.AlgorithmDistributed,
	faircache.AlgorithmHopCount,
	faircache.AlgorithmContention,
}

// Scenario is the shared experimental setup of Sec. V-A.
type Scenario struct {
	// Chunks is the number of distinct data chunks (paper default 5).
	Chunks int
	// Capacity is the per-node cache capacity (paper default 5).
	Capacity int
	// Producer overrides the producer node; -1 picks the paper's node 9
	// on grids and the central node on random networks.
	Producer int
	// OptimalBudget bounds the exact solver's per-chunk search nodes
	// (0 = exhaustive).
	OptimalBudget int
	// OptimalWidth caps the exact solver's caching-set size (0 = the
	// exact Steiner limit); smaller widths keep budgeted searches fast.
	OptimalWidth int
	// Seeds are the random-network seeds to average over (paper: 5 runs).
	Seeds []int64
}

// DefaultScenario returns the paper's simulation defaults.
func DefaultScenario() Scenario {
	return Scenario{
		Chunks:   5,
		Capacity: 5,
		Producer: -1,
		Seeds:    []int64{1, 2, 3, 4, 5},
	}
}

func (s Scenario) options() *faircache.Options {
	return &faircache.Options{
		Capacity:     s.Capacity,
		SearchBudget: s.OptimalBudget,
		SearchWidth:  s.OptimalWidth,
	}
}

// producerOn resolves the producer for a topology: the paper fixes node 9
// unless the topology is too small or a producer was set explicitly.
func (s Scenario) producerOn(topo *faircache.Topology) int {
	if s.Producer >= 0 && s.Producer < topo.NumNodes() {
		return s.Producer
	}
	if topo.NumNodes() > 9 {
		return 9
	}
	return topo.NumNodes() / 2
}
