package faircache_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	faircache "repro"
)

// topologies returns the three network models of the paper's evaluation,
// built with fixed seeds.
func testTopologies(t *testing.T) map[string]*faircache.Topology {
	t.Helper()
	grid, err := faircache.Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	random, err := faircache.Random(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := faircache.Clustered(4, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*faircache.Topology{
		"grid":      grid,
		"random":    random,
		"clustered": clustered,
	}
}

func sameResult(t *testing.T, label string, want, got *faircache.Result) {
	t.Helper()
	if len(want.Holders) != len(got.Holders) {
		t.Fatalf("%s: %d chunks != %d chunks", label, len(got.Holders), len(want.Holders))
	}
	for n := range want.Holders {
		if len(want.Holders[n]) != len(got.Holders[n]) {
			t.Fatalf("%s chunk %d: holders %v != %v", label, n, got.Holders[n], want.Holders[n])
		}
		for k := range want.Holders[n] {
			if want.Holders[n][k] != got.Holders[n][k] {
				t.Fatalf("%s chunk %d: holders %v != %v", label, n, got.Holders[n], want.Holders[n])
			}
		}
	}
	for i := range want.Counts {
		if want.Counts[i] != got.Counts[i] {
			t.Fatalf("%s: counts[%d] %d != %d", label, i, got.Counts[i], want.Counts[i])
		}
	}
	if math.Float64bits(want.Gini()) != math.Float64bits(got.Gini()) {
		t.Fatalf("%s: gini %v != %v", label, got.Gini(), want.Gini())
	}
	wantCost, err := want.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	gotCost, err := got.ContentionCost()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(wantCost.Total()) != math.Float64bits(gotCost.Total()) {
		t.Fatalf("%s: cost %v != %v", label, gotCost.Total(), wantCost.Total())
	}
}

// TestSolveParallelMatchesSequential is the engine's determinism contract
// at the public API: for fixed seeds, the parallel engine must produce
// byte-identical holder sets, counts, Gini and contention cost to the
// sequential reference, on every topology model and algorithm.
func TestSolveParallelMatchesSequential(t *testing.T) {
	algorithms := []faircache.Algorithm{
		faircache.AlgorithmApprox,
		faircache.AlgorithmHopCount,
		faircache.AlgorithmContention,
	}
	widths := []int{2, 4, runtime.GOMAXPROCS(0)}
	for name, topo := range testTopologies(t) {
		solver, err := faircache.NewSolver(topo)
		if err != nil {
			t.Fatal(err)
		}
		producer := topo.CentralNode()
		for _, alg := range algorithms {
			req := faircache.Request{Producer: producer, Chunks: 6, Algorithm: alg}
			setWidth(t, 1)
			seq, err := solver.Solve(context.Background(), req)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", name, alg, err)
			}
			for _, width := range widths {
				setWidth(t, width)
				par, err := solver.Solve(context.Background(), req)
				if err != nil {
					t.Fatalf("%s/%s width=%d: %v", name, alg, width, err)
				}
				sameResult(t, name+"/"+string(alg), seq, par)
			}
		}
	}
}

// TestSolverConcurrentStress hammers one Solver from many goroutines (run
// with -race): every solve, and every evaluation of it on the solver's
// shared base model (fork counters, the lazily built hop matrix), must
// match the single-threaded reference.
func TestSolverConcurrentStress(t *testing.T) {
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []faircache.Request{
		{Producer: 9, Chunks: 5},
		{Producer: 9, Chunks: 5, Algorithm: faircache.AlgorithmHopCount},
	}
	refSolver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*faircache.Result, len(reqs))
	for i, req := range reqs {
		if refs[i], err = refSolver.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	results := make([]*faircache.Result, goroutines)
	costs := make([]*faircache.CostReport, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = solver.Solve(context.Background(), reqs[i%len(reqs)])
			if errs[i] == nil {
				costs[i], errs[i] = results[i].ContentionCost()
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		ref := refs[i%len(reqs)]
		sameResult(t, "concurrent", ref, results[i])
		want, err := ref.ContentionCost()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(costs[i].Total()) != math.Float64bits(want.Total()) {
			t.Fatalf("goroutine %d: concurrent cost %v != %v", i, costs[i].Total(), want.Total())
		}
	}
}

func TestSolveBadArguments(t *testing.T) {
	topo, err := faircache.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  faircache.Request
	}{
		{"producer negative", faircache.Request{Producer: -1, Chunks: 1}},
		{"producer out of range", faircache.Request{Producer: 16, Chunks: 1}},
		{"zero chunks", faircache.Request{Producer: 0, Chunks: 0}},
		{"negative chunks", faircache.Request{Producer: 0, Chunks: -3}},
		{"unknown algorithm", faircache.Request{Producer: 0, Chunks: 1, Algorithm: "Nope"}},
	}
	for _, c := range cases {
		_, err := solver.Solve(context.Background(), c.req)
		if !errors.Is(err, faircache.ErrBadArgument) {
			t.Errorf("%s: err = %v, want errors.Is(ErrBadArgument)", c.name, err)
		}
	}
	if _, err := faircache.NewSolver(nil); !errors.Is(err, faircache.ErrBadArgument) {
		t.Errorf("NewSolver(nil): err = %v, want errors.Is(ErrBadArgument)", err)
	}
	// Algorithm 1 needs a producer and at least one other node, so a
	// 1-node topology is refused when it is built.
	if _, err := faircache.FromLinks(1, nil); !errors.Is(err, faircache.ErrBadArgument) {
		t.Errorf("FromLinks(1, nil): err = %v, want errors.Is(ErrBadArgument)", err)
	}
}

func TestSolvePreCancelled(t *testing.T) {
	topo, err := faircache.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []faircache.Algorithm{
		faircache.AlgorithmApprox,
		faircache.AlgorithmDistributed,
		faircache.AlgorithmHopCount,
		faircache.AlgorithmContention,
		faircache.AlgorithmOptimal,
	} {
		_, err := solver.Solve(ctx, faircache.Request{
			Producer:  0,
			Chunks:    2,
			Algorithm: alg,
			Options:   &faircache.Options{SearchWidth: 2, SearchBudget: 100},
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", alg, err)
		}
	}
}

// TestSolveCancelMidSolve uses the ChunkStarted observability hook to
// cancel after the second chunk begins and asserts the engine stopped
// there instead of placing the remaining chunks.
func TestSolveCancelMidSolve(t *testing.T) {
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 12
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	_, err = solver.Solve(ctx, faircache.Request{
		Producer: 9,
		Chunks:   chunks,
		Options: &faircache.Options{
			ChunkStarted: func(chunk int) {
				started++
				if chunk == 1 {
					cancel()
				}
			},
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started >= chunks {
		t.Fatalf("all %d chunks started despite cancellation", started)
	}
}

func TestSolveDeadlineExceeded(t *testing.T) {
	topo, err := faircache.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	_, err = solver.Solve(ctx, faircache.Request{Producer: 0, Chunks: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestOptimalSolveStopsAtDeadline checks that an exact (Brtf) solve
// returns soon after its deadline, with or without a search budget. Each
// caching set the search explores may run the exact Dreyfus–Wagner
// Steiner DP, tens of milliseconds on a 4×4 grid (several times that
// under -race), so the search must check its context before each one.
func TestOptimalSolveStopsAtDeadline(t *testing.T) {
	topo, err := faircache.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 50} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := solver.Solve(ctx, faircache.Request{
			Producer:  5,
			Chunks:    5,
			Algorithm: faircache.AlgorithmOptimal,
			Options:   &faircache.Options{SearchBudget: budget},
		})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("budget %d: err = %v, want context.DeadlineExceeded", budget, err)
		}
		if elapsed > time.Second {
			t.Errorf("budget %d: solve returned %v after its 100ms deadline began", budget, elapsed)
		}
	}
}

// TestParseAlgorithm pins the canonical enum: every canonical name
// round-trips through String, every legacy alias resolves, and unknown
// names fail with ErrBadArgument.
func TestParseAlgorithm(t *testing.T) {
	cases := map[string]faircache.Algorithm{
		"Appx": faircache.AlgorithmApprox, "appx": faircache.AlgorithmApprox,
		"":            faircache.AlgorithmApprox,
		"approximate": faircache.AlgorithmApprox,
		"Dist":        faircache.AlgorithmDistributed,
		"distribute":  faircache.AlgorithmDistributed,
		"distributed": faircache.AlgorithmDistributed,
		"Hopc":        faircache.AlgorithmHopCount,
		"hopcount":    faircache.AlgorithmHopCount,
		"Cont":        faircache.AlgorithmContention,
		"contention":  faircache.AlgorithmContention,
		"Brtf":        faircache.AlgorithmOptimal,
		"optimal":     faircache.AlgorithmOptimal,
		"exact":       faircache.AlgorithmOptimal,
		" BRTF ":      faircache.AlgorithmOptimal, // case + whitespace
	}
	for in, want := range cases {
		got, err := faircache.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	// Canonical names round-trip: Parse(a.String()) == a.
	for _, a := range []faircache.Algorithm{
		faircache.AlgorithmApprox, faircache.AlgorithmDistributed,
		faircache.AlgorithmHopCount, faircache.AlgorithmContention,
		faircache.AlgorithmOptimal,
	} {
		got, err := faircache.ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round-trip %v: (%v, %v)", a, got, err)
		}
	}
	if _, err := faircache.ParseAlgorithm("lru"); !errors.Is(err, faircache.ErrBadArgument) {
		t.Errorf("unknown algorithm err = %v, want ErrBadArgument", err)
	}
}
