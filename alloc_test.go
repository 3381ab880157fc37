// Allocation-budget regression tests for the public solve entry points.
// The scratch-arena refactor cut BenchmarkSolveSequential from ~389k to
// ~11k allocs per solve; these tests pin per-solve ceilings on a small
// grid so a future change cannot silently reintroduce per-tick or
// per-node garbage without tripping CI. Ceilings carry ~2x headroom over
// the measured steady state — they catch order-of-magnitude regressions,
// not size-class jitter.
package faircache_test

import (
	"context"
	"testing"

	faircache "repro"
)

// TestSolveAllocBudget pins allocs per warm solve for the approximation
// and the two wireless-caching baselines on a 6x6 grid, 8 chunks. The
// first solve per algorithm pays the cold path-cache/cost-model build;
// the measured runs are the steady state a daemon serves from.
func TestSolveAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		alg     faircache.Algorithm
		ceiling float64
	}{
		// Appx runs Algorithm 1 on the arena hot path; warm solves are
		// dominated by result assembly (~300 measured).
		{faircache.AlgorithmApprox, 800},
		// The baselines skip the arena machinery and still rebuild their
		// cost views per solve (~1500 measured) — bounded, not optimized.
		{faircache.AlgorithmHopCount, 3000},
		{faircache.AlgorithmContention, 3000},
	} {
		t.Run(string(tc.alg), func(t *testing.T) {
			setWidth(t, 1)
			topo, err := faircache.Grid(6, 6)
			if err != nil {
				t.Fatal(err)
			}
			solver, err := faircache.NewSolver(topo)
			if err != nil {
				t.Fatal(err)
			}
			req := faircache.Request{
				Producer:  9,
				Chunks:    8,
				Algorithm: tc.alg,
				Options:   &faircache.Options{Capacity: 3},
			}
			solve := func() {
				if _, err := solver.Solve(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
			solve() // cold: path cache + base model build
			got := testing.AllocsPerRun(10, solve)
			t.Logf("Solve(%s): %.0f allocs/run", tc.alg, got)
			if got > tc.ceiling {
				t.Errorf("Solve(%s) allocates %.0f times per run, want <= %g", tc.alg, got, tc.ceiling)
			}
		})
	}
}

// TestSolveAndCostAllocBudget pins allocs per warm solve plus its
// ContentionCost evaluation, on TestSolveAllocBudget's fixture. The
// evaluation replays the placement on a fork of the solver's warm cost
// model (reusing Appx's own dissemination trees), so it adds about a
// hundred allocations to a solve; the from-scratch replay it replaced
// added thousands, and fails these ceilings.
func TestSolveAndCostAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		alg     faircache.Algorithm
		ceiling float64
	}{
		{faircache.AlgorithmApprox, 800},
		{faircache.AlgorithmHopCount, 3500},
		{faircache.AlgorithmContention, 3500},
	} {
		t.Run(string(tc.alg), func(t *testing.T) {
			setWidth(t, 1)
			topo, err := faircache.Grid(6, 6)
			if err != nil {
				t.Fatal(err)
			}
			solver, err := faircache.NewSolver(topo)
			if err != nil {
				t.Fatal(err)
			}
			req := faircache.Request{
				Producer:  9,
				Chunks:    8,
				Algorithm: tc.alg,
				Options:   &faircache.Options{Capacity: 3},
			}
			solveAndCost := func() {
				res, err := solver.Solve(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := res.ContentionCost(); err != nil {
					t.Fatal(err)
				}
			}
			solveAndCost() // cold: path cache, base model and hop matrix build
			got := testing.AllocsPerRun(10, solveAndCost)
			t.Logf("Solve(%s)+ContentionCost: %.0f allocs/run", tc.alg, got)
			if got > tc.ceiling {
				t.Errorf("Solve(%s)+ContentionCost allocates %.0f times per run, want <= %g", tc.alg, got, tc.ceiling)
			}
		})
	}
}
