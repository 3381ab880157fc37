package faircache

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// evalVariant is one solve configuration of the differential test.
type evalVariant struct {
	name string
	alg  Algorithm
	opts func(o *Options)
}

// TestEvaluateMatchesOracle is the differential test of the cost-model
// evaluation: on real Solve results over grid, random, clustered and line
// topologies — every algorithm, greedy, improved and partitioned Appx,
// random producers and chunk counts, heterogeneous capacities with
// battery levels — Result.evaluate must equal metrics.Evaluate, the
// from-scratch replay, in every field by math.Float64bits, and in the
// error string wherever both fail. Every global Appx solve, improved or
// not, hands its trees to the evaluation; the trees it reuses must equal
// the oracle's per-chunk dissemination costs, and evaluating must neither
// count as a solve nor build a base model for a solver that has none.
func TestEvaluateMatchesOracle(t *testing.T) {
	type topoCase struct {
		name string
		make func() (*Topology, error)
	}
	topos := []topoCase{
		{"grid3x3", func() (*Topology, error) { return Grid(3, 3) }},
		{"grid6x6", func() (*Topology, error) { return Grid(6, 6) }},
		{"grid10x10", func() (*Topology, error) { return Grid(10, 10) }},
		{"random60", func() (*Topology, error) { return Random(60, 5) }},
		{"clustered4x10", func() (*Topology, error) { return Clustered(4, 10, 3) }},
		{"line12", func() (*Topology, error) { return Line(12) }},
	}
	variants := []evalVariant{
		{"appx", AlgorithmApprox, nil},
		{"appx-greedy", AlgorithmApprox, func(o *Options) { o.GreedyConFL = true }},
		{"appx-improve", AlgorithmApprox, func(o *Options) { o.ImproveSteiner = true }},
		{"appx-partitioned", AlgorithmApprox, func(o *Options) { o.Partition = &PartitionOptions{Regions: 3} }},
		{"dist", AlgorithmDistributed, nil},
		{"hopc", AlgorithmHopCount, nil},
		{"cont", AlgorithmContention, nil},
		{"brtf", AlgorithmOptimal, nil},
	}
	rng := rand.New(rand.NewSource(16))
	var compared, reused, improved int
	for _, tc := range topos {
		topo, err := tc.make()
		if err != nil {
			t.Fatal(err)
		}
		n := topo.NumNodes()

		// A solver whose first solve is partitioned has no base model;
		// its evaluation runs on a transient one that it must not keep.
		fresh, err := NewSolver(topo)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fresh.Solve(context.Background(), Request{Producer: rng.Intn(n), Chunks: 1 + rng.Intn(6),
			Options: &Options{Partition: &PartitionOptions{Regions: 2}}})
		if err != nil {
			t.Fatalf("%s: first partitioned solve: %v", tc.name, err)
		}
		before := fresh.Stats()
		checkEvaluate(t, tc.name+"/partitioned-first", res)
		compared++
		if fresh.base != nil {
			t.Errorf("%s: evaluating a partitioned-only solver's result built and kept its base model", tc.name)
		}
		if after := fresh.Stats(); after != before {
			t.Errorf("%s: evaluation changed solver stats %+v -> %+v", tc.name, before, after)
		}

		solver, err := NewSolver(topo)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 4; rep++ {
			for _, v := range variants {
				if v.alg == AlgorithmOptimal && n > 9 {
					continue
				}
				o := &Options{Capacity: 2 + rng.Intn(4)}
				if rep%2 == 1 {
					o.Capacities = make([]int, n)
					o.BatteryLevels = make([]float64, n)
					for i := range o.Capacities {
						o.Capacities[i] = 1 + rng.Intn(5)
						o.BatteryLevels[i] = 0.05 + 0.95*rng.Float64()
					}
					o.BatteryWeight = 0.5 + rng.Float64()
				}
				if v.opts != nil {
					v.opts(o)
				}
				req := Request{Producer: rng.Intn(n), Chunks: 1 + rng.Intn(8), Algorithm: v.alg, Options: o}
				res, err := solver.Solve(context.Background(), req)
				if err != nil {
					t.Fatalf("%s/%s rep %d: solve: %v", tc.name, v.name, rep, err)
				}
				label := fmt.Sprintf("%s/%s/rep%d", tc.name, v.name, rep)
				before := solver.Stats()
				oracle := checkEvaluate(t, label, res)
				compared++
				if after := solver.Stats(); after != before {
					t.Errorf("%s: evaluation changed solver stats %+v -> %+v", label, before, after)
				}
				if o.ImproveSteiner {
					improved++
					if res.trees == nil {
						t.Errorf("%s: a global improve solve kept no trees for reuse", label)
					}
				}
				if res.trees != nil && oracle != nil {
					reused++
					for c, tr := range res.trees {
						if got, want := tr.cost, oracle.PerChunk[c].Dissemination; math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s chunk %d: solve tree cost %v, oracle dissemination %v", label, c, got, want)
						}
					}
				}
				tamper(t, label, rng, res)
			}
		}
	}
	t.Logf("%d results compared, %d with reused trees, %d improved", compared, reused, improved)
	if compared < 150 || reused == 0 || improved == 0 {
		t.Errorf("coverage too thin: %d results, %d reusing trees, %d improved", compared, reused, improved)
	}
}

// tamper edits a result's holders and checks the evaluation still agrees
// with the oracle: dropping a copy keeps the placement valid but changes
// every later chunk's replay state (so no solve tree may be reused), an
// out-of-range holder fails the tree, and a copy on a full node fails the
// replay.
func tamper(t *testing.T, label string, rng *rand.Rand, res *Result) {
	t.Helper()
	orig := res.Holders
	defer func() { res.Holders = orig }()
	edit := func(n int, hs []int) {
		res.Holders = append([][]int(nil), orig...)
		res.Holders[n] = hs
	}
	n := rng.Intn(len(orig))
	if len(orig[n]) > 0 {
		edit(n, orig[n][:len(orig[n])-1])
		checkEvaluate(t, label+"/dropped", res)
	}
	edit(n, append(append([]int(nil), orig[n]...), res.solver.topo.NumNodes()))
	if checkEvaluate(t, label+"/out-of-range", res) != nil {
		t.Errorf("%s: an out-of-range holder evaluated without error", label)
	}
	last := len(orig) - 1
	for i, c := range res.Counts {
		if i == res.Producer || c < res.base.Capacity(i) || res.base.Capacity(i) == 0 {
			continue
		}
		held := false
		for _, h := range orig[last] {
			held = held || h == i
		}
		if !held {
			edit(last, append(append([]int(nil), orig[last]...), i))
			if checkEvaluate(t, label+"/full", res) != nil {
				t.Errorf("%s: a copy on full node %d evaluated without error", label, i)
			}
			return
		}
	}
}

// checkEvaluate compares the cost-model evaluation of res with the
// from-scratch oracle bit for bit and returns the oracle's result (nil
// when both failed).
func checkEvaluate(t *testing.T, label string, res *Result) *metrics.Eval {
	t.Helper()
	got, gerr := res.evaluate(context.Background())
	want, werr := metrics.Evaluate(res.solver.topo.g, res.base, res.Producer, res.Holders, res.strategy)
	switch {
	case gerr != nil || werr != nil:
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Errorf("%s: evaluate error %v, oracle error %v", label, gerr, werr)
		}
		return nil
	}
	same := func(field string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %s = %v, oracle %v", label, field, g, w)
		}
	}
	same("Access", got.Access, want.Access)
	same("Dissemination", got.Dissemination, want.Dissemination)
	same("AccessDelay", got.AccessDelay, want.AccessDelay)
	if len(got.PerChunk) != len(want.PerChunk) {
		t.Fatalf("%s: %d per-chunk entries, oracle %d", label, len(got.PerChunk), len(want.PerChunk))
	}
	for c := range want.PerChunk {
		same(fmt.Sprintf("PerChunk[%d].Access", c), got.PerChunk[c].Access, want.PerChunk[c].Access)
		same(fmt.Sprintf("PerChunk[%d].Dissemination", c), got.PerChunk[c].Dissemination, want.PerChunk[c].Dissemination)
		same(fmt.Sprintf("PerChunk[%d].AccessDelay", c), got.PerChunk[c].AccessDelay, want.PerChunk[c].AccessDelay)
	}
	return want
}
