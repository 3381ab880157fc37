package faircache

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// runAlgT is the in-package twin of the external runAlg helper: one
// positional solve through the Solver API, standing in for the removed
// deprecated wrappers.
func runAlgT(alg Algorithm, t *Topology, producer, chunks int, opts *Options) (*Result, error) {
	s, err := NewSolver(t)
	if err != nil {
		return nil, err
	}
	return s.Solve(context.Background(), Request{
		Producer:  producer,
		Chunks:    chunks,
		Algorithm: alg,
		Options:   opts,
	})
}

func TestGridValidation(t *testing.T) {
	if _, err := Grid(0, 5); !errors.Is(err, ErrBadArgument) {
		t.Errorf("Grid(0,5) err = %v", err)
	}
	if _, err := Grid(1, 1); !errors.Is(err, ErrBadArgument) {
		t.Errorf("Grid(1,1) err = %v", err)
	}
	topo, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 36 || topo.NumLinks() != 60 {
		t.Errorf("6x6 grid: %d nodes, %d links", topo.NumNodes(), topo.NumLinks())
	}
	if topo.Degree(0) != 2 {
		t.Errorf("corner degree = %d", topo.Degree(0))
	}
	if got := topo.Neighbors(0); len(got) != 2 {
		t.Errorf("Neighbors(0) = %v", got)
	}
}

func TestFromLinks(t *testing.T) {
	if _, err := FromLinks(3, [][2]int{{0, 1}}); !errors.Is(err, ErrNotConnected) {
		t.Errorf("disconnected: err = %v", err)
	}
	if _, err := FromLinks(2, [][2]int{{0, 5}}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("out-of-range link: err = %v, want ErrBadArgument", err)
	}
	topo, err := FromLinks(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumLinks() != 2 {
		t.Errorf("NumLinks = %d", topo.NumLinks())
	}
}

// TestConstructorsRejectUnderTwoNodes checks every topology constructor
// that takes a node count refuses fewer than 2 nodes with ErrBadArgument,
// as Grid, Line and Ring do: Algorithm 1 needs a producer and at least
// one other node, and no solver sees a smaller topology.
func TestConstructorsRejectUnderTwoNodes(t *testing.T) {
	build := map[string]func(n int) (*Topology, error){
		"Random":           func(n int) (*Topology, error) { return Random(n, 1) },
		"RandomWithRadius": func(n int) (*Topology, error) { return RandomWithRadius(n, 0.5, 1) },
		"Clustered":        func(n int) (*Topology, error) { return Clustered(1, n, 1) },
		"FromLinks": func(n int) (*Topology, error) {
			var path [][2]int // nil below 2 nodes
			for v := 1; v < n; v++ {
				path = append(path, [2]int{v - 1, v})
			}
			return FromLinks(n, path)
		},
	}
	for name, fn := range build {
		for _, n := range []int{-3, 0, 1} {
			if topo, err := fn(n); !errors.Is(err, ErrBadArgument) {
				t.Errorf("%s(%d) = %v, %v; want ErrBadArgument", name, n, topo, err)
			}
		}
		if topo, err := fn(2); err != nil || topo.NumNodes() != 2 {
			t.Errorf("%s(2) = %v, %v; want a 2-node topology", name, topo, err)
		}
	}
}

// TestDisconnectedRejectedUpFront pins the typed rejection of
// disconnected topologies: ErrNotConnected wraps ErrBadArgument, so
// callers can match either, and both the constructor and the solver
// entry points refuse the input before any solving happens.
func TestDisconnectedRejectedUpFront(t *testing.T) {
	_, err := FromLinks(4, [][2]int{{0, 1}, {2, 3}})
	if !errors.Is(err, ErrNotConnected) {
		t.Fatalf("FromLinks: err = %v, want ErrNotConnected", err)
	}
	if !errors.Is(err, ErrBadArgument) {
		t.Fatalf("FromLinks: err = %v must also match ErrBadArgument", err)
	}

	// Constructors bridge or reject disconnected inputs, so NewSolver's
	// own check needs a hand-built topology to exercise.
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSolver(&Topology{g: g}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("NewSolver: err = %v, want ErrNotConnected", err)
	}
	if _, err := NewSolver(&Topology{g: g}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("NewSolver: err must also match ErrBadArgument")
	}
}

func TestRandomTopologyDeterministic(t *testing.T) {
	a, err := Random(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLinks() != b.NumLinks() {
		t.Errorf("same seed, different topologies: %d vs %d links", a.NumLinks(), b.NumLinks())
	}
	if a.CentralNode() != b.CentralNode() {
		t.Error("same seed, different central node")
	}
	// A size or radius the generator refuses is the caller's mistake.
	if _, err := Random(0, 7); !errors.Is(err, ErrBadArgument) {
		t.Errorf("Random(0): err = %v, want ErrBadArgument", err)
	}
	if _, err := RandomWithRadius(40, -1, 7); !errors.Is(err, ErrBadArgument) {
		t.Errorf("RandomWithRadius(radius -1): err = %v, want ErrBadArgument", err)
	}
}

func TestApproximateOnPaperScenario(t *testing.T) {
	topo, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runAlgT(AlgorithmApprox, topo, 9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgorithmApprox {
		t.Errorf("Algorithm = %v", res.Algorithm)
	}
	if len(res.Holders) != 5 {
		t.Fatalf("Holders length = %d", len(res.Holders))
	}
	if res.Counts[9] != 0 {
		t.Error("producer cached data")
	}
	if res.TotalCopies() == 0 || res.DistinctCacheNodes() == 0 {
		t.Error("nothing cached")
	}
	// Paper's headline fairness: Gini < 0.4 on the 6x6 grid.
	if g := res.Gini(); g >= 0.4 {
		t.Errorf("Gini = %g, want < 0.4", g)
	}
	pf, err := res.PercentileFairness(75)
	if err != nil {
		t.Fatal(err)
	}
	if pf < 0.4 {
		t.Errorf("75-percentile fairness = %g, want the paper's spread-out regime (> 0.4)", pf)
	}
	cost, err := res.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	if cost.Total() <= 0 || len(cost.PerChunk) != 5 {
		t.Errorf("cost report: %+v", cost)
	}
	sum := 0.0
	for _, pc := range cost.PerChunk {
		sum += pc
	}
	if math.Abs(sum-cost.Total()) > 1e-6 {
		t.Errorf("per-chunk sum %g != total %g", sum, cost.Total())
	}
	curve := res.StorageCurve()
	if len(curve) != 36 || curve[35] != 1 {
		t.Errorf("storage curve = %v", curve)
	}
}

func TestDistributeProducesMessagesAndFairness(t *testing.T) {
	topo, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runAlgT(AlgorithmDistributed, topo, 9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == nil || res.Messages["NPI"] == 0 {
		t.Errorf("Messages = %v, want protocol traffic", res.Messages)
	}
	if g := res.Gini(); g >= 0.5 {
		t.Errorf("Gini = %g, want the paper's fair regime", g)
	}
}

func TestBaselinesAreUnfair(t *testing.T) {
	topo, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := runAlgT(AlgorithmHopCount, topo, 9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := runAlgT(AlgorithmContention, topo, 9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	appx, err := runAlgT(AlgorithmApprox, topo, 9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fairness ordering of the paper: Appx fairer than Cont fairer than
	// Hopc (Fig. 6/7).
	if !(appx.Gini() < cont.Gini() && cont.Gini() < hop.Gini()) {
		t.Errorf("gini ordering violated: appx %g, cont %g, hopc %g", appx.Gini(), cont.Gini(), hop.Gini())
	}
	// Contention ordering: Hopc clearly worse than Appx (Fig. 2).
	hopCost, err := hop.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	appxCost, err := appx.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	if hopCost.Total() <= appxCost.Total() {
		t.Errorf("Hopc total %g not worse than Appx %g", hopCost.Total(), appxCost.Total())
	}
}

func TestOptimalOnSmallGrid(t *testing.T) {
	topo, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runAlgT(AlgorithmOptimal, topo, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ProvenOptimal {
		t.Error("3x3 search should complete exhaustively")
	}
	appx, err := runAlgT(AlgorithmApprox, topo, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := res.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	appxCost, err := appx.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	// The approximation can beat the optimum on the *evaluation* metric
	// (the optimum minimises the decision-time objective), but both must
	// be positive and within the approximation guarantee in magnitude.
	if optCost.Total() <= 0 || appxCost.Total() <= 0 {
		t.Errorf("non-positive costs: opt %g appx %g", optCost.Total(), appxCost.Total())
	}
	if appxCost.Total() > 6.55*optCost.Total() {
		t.Errorf("approximation exceeds 6.55x the optimum on evaluation: %g vs %g", appxCost.Total(), optCost.Total())
	}
}

func TestOptimalSearchBudget(t *testing.T) {
	topo, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runAlgT(AlgorithmOptimal, topo, 5, 1, &Options{SearchBudget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProvenOptimal {
		t.Error("budget 5 on 4x4 should not prove optimality")
	}
}

func TestOptionsDefaultsAndOverrides(t *testing.T) {
	topo, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 1 with 3 chunks must still respect capacity everywhere.
	res, err := runAlgT(AlgorithmApprox, topo, 0, 3, &Options{Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Counts {
		if c > 1 {
			t.Errorf("node %d stores %d > capacity 1", i, c)
		}
	}
	// Negative fairness weight = ablation (contention only); still runs.
	if _, err := runAlgT(AlgorithmApprox, topo, 0, 2, &Options{FairnessWeight: -1}); err != nil {
		t.Errorf("zero-fairness ablation: %v", err)
	}
	// Distributed 1-hop override.
	if _, err := runAlgT(AlgorithmDistributed, topo, 0, 1, &Options{HopLimit: 1}); err != nil {
		t.Errorf("1-hop distribute: %v", err)
	}
	// Baseline with explicit lambda.
	if _, err := runAlgT(AlgorithmHopCount, topo, 0, 2, &Options{Lambda: 4}); err != nil {
		t.Errorf("explicit lambda: %v", err)
	}
}

func TestPlacementErrorsSurface(t *testing.T) {
	topo, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAlgT(AlgorithmApprox, topo, -1, 1, nil); err == nil {
		t.Error("bad producer: want error")
	}
	if _, err := runAlgT(AlgorithmDistributed, topo, 0, 0, nil); err == nil {
		t.Error("zero chunks: want error")
	}
	if _, err := runAlgT(AlgorithmHopCount, topo, 99, 1, nil); err == nil {
		t.Error("bad producer baseline: want error")
	}
	if _, err := runAlgT(AlgorithmOptimal, topo, 99, 1, nil); err == nil {
		t.Error("bad producer optimal: want error")
	}
}

func TestBatteryFairnessExtension(t *testing.T) {
	topo, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the batteries of the left half of the grid; with the
	// battery-fairness extension on, caching must shift to the right.
	levels := make([]float64, 36)
	for i := range levels {
		levels[i] = 1
		if i%6 < 3 {
			levels[i] = 0.05 // nearly dead
		}
	}
	opts := &Options{BatteryLevels: levels, BatteryWeight: 1}
	for _, run := range []struct {
		name string
		fn   func() (*Result, error)
	}{
		{"approximate", func() (*Result, error) { return runAlgT(AlgorithmApprox, topo, 9, 5, opts) }},
		{"distribute", func() (*Result, error) { return runAlgT(AlgorithmDistributed, topo, 9, 5, opts) }},
	} {
		res, err := run.fn()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		left, right := 0, 0
		for i, c := range res.Counts {
			if i%6 < 3 {
				left += c
			} else {
				right += c
			}
		}
		if right == 0 {
			t.Fatalf("%s: nothing cached at all", run.name)
		}
		if left >= right {
			t.Errorf("%s: drained half holds %d chunks vs %d on the charged half", run.name, left, right)
		}
	}
}

func TestBatteryWeightZeroIgnoresLevels(t *testing.T) {
	topo, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]float64, 16)
	for i := range levels {
		levels[i] = 0.01
	}
	// Weight 0: drained batteries must not prevent caching.
	res, err := runAlgT(AlgorithmApprox, topo, 5, 3, &Options{BatteryLevels: levels})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCopies() == 0 {
		t.Error("battery levels leaked into placement despite weight 0")
	}
}

func TestHeterogeneousCapacities(t *testing.T) {
	topo, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Half the devices contribute no storage at all.
	caps := make([]int, 16)
	for i := range caps {
		if i%2 == 0 {
			caps[i] = 4
		}
	}
	res, err := runAlgT(AlgorithmApprox, topo, 5, 4, &Options{Capacities: caps})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Counts {
		if caps[i] == 0 && c > 0 {
			t.Errorf("zero-capacity node %d cached %d chunks", i, c)
		}
		if c > caps[i] {
			t.Errorf("node %d stored %d > capacity %d", i, c, caps[i])
		}
	}
	if res.TotalCopies() == 0 {
		t.Error("nothing cached despite available storage")
	}
	// Contention evaluation must replay against the same capacities.
	if _, err := res.ContentionCost(); err != nil {
		t.Errorf("ContentionCost with heterogeneous capacities: %v", err)
	}
}

func TestAccessDelayEstimate(t *testing.T) {
	topo, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	appx, err := runAlgT(AlgorithmApprox, topo, 9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	hop, err := runAlgT(AlgorithmHopCount, topo, 9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	appxCost, err := appx.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	hopCost, err := hop.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	if appxCost.AccessDelay <= 0 {
		t.Fatalf("AccessDelay = %v, want > 0", appxCost.AccessDelay)
	}
	// The DCF delay is a linear transform of the contention cost, so the
	// fairness algorithm's latency advantage must carry over.
	if appxCost.AccessDelay >= hopCost.AccessDelay {
		t.Errorf("Appx delay %v not below Hopc %v", appxCost.AccessDelay, hopCost.AccessDelay)
	}
}

func TestGreedyConFLAblation(t *testing.T) {
	topo, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runAlgT(AlgorithmApprox, topo, 9, 5, &Options{GreedyConFL: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCopies() == 0 {
		t.Fatal("greedy strategy cached nothing")
	}
	for i, c := range res.Counts {
		if c > res.Capacity {
			t.Errorf("node %d over capacity", i)
		}
		if i == 9 && c != 0 {
			t.Error("producer cached data")
		}
	}
	if _, err := res.ContentionCost(); err != nil {
		t.Errorf("greedy ContentionCost: %v", err)
	}
}

func TestLineRingClusteredTopologies(t *testing.T) {
	if _, err := Line(1); err == nil {
		t.Error("Line(1): want error")
	}
	if _, err := Ring(2); err == nil {
		t.Error("Ring(2): want error")
	}
	if _, err := Clustered(0, 5, 1); !errors.Is(err, ErrBadArgument) {
		t.Errorf("Clustered(0,..): err = %v, want ErrBadArgument", err)
	}
	line, err := Line(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAlgT(AlgorithmApprox, line, 0, 3, nil); err != nil {
		t.Errorf("approximate on line: %v", err)
	}
	ring, err := Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runAlgT(AlgorithmDistributed, ring, 0, 2, nil); err != nil {
		t.Errorf("distribute on ring: %v", err)
	}
	crowd, err := Clustered(3, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runAlgT(AlgorithmApprox, crowd, crowd.CentralNode(), 4, nil)
	if err != nil {
		t.Fatalf("approximate on clustered: %v", err)
	}
	if res.TotalCopies() == 0 {
		t.Error("nothing cached on the clustered topology")
	}
}

// TestImproveSteinerOptionNeverWorsensDecisionCost: a global solve reads
// no tree the key-path search could improve, so an ImproveSteiner solve
// skips the search (its explain report holds no steiner.improve phase),
// keeps its MST trees for the evaluation and equals the plain solve.
func TestImproveSteinerOptionNeverWorsensDecisionCost(t *testing.T) {
	topo, err := Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runAlgT(AlgorithmApprox, topo, 9, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := runAlgT(AlgorithmApprox, topo, 9, 5, &Options{ImproveSteiner: true, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(improved.Holders, plain.Holders) || !reflect.DeepEqual(improved.Counts, plain.Counts) {
		t.Fatalf("improve solve placed %v, plain solve %v", improved.Holders, plain.Holders)
	}
	phases := map[string]int{}
	for _, ph := range improved.Trace.Phases {
		phases[ph.Phase] = ph.Count
	}
	if phases["steiner.connect"] == 0 || phases["steiner.improve"] != 0 {
		t.Fatalf("improve solve phases %v: want steiner.connect spans and no steiner.improve", phases)
	}
	if improved.trees == nil || !reflect.DeepEqual(improved.trees, plain.trees) {
		t.Fatalf("improve solve trees %v, want the plain solve's %v", improved.trees, plain.trees)
	}
	// ContentionCost replays MST trees over the holders, so a global
	// improve solve reports the plain solve's objective exactly (the trees
	// the search buys are pinned in internal/core's
	// TestImproveSteinerNeverRaisesDissemination).
	want, err := plain.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	got, err := improved.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("improve solve ContentionCost = %+v, want the plain solve's %+v", *got, *want)
	}
}
