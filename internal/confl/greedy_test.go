package confl

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
)

func TestSolveGreedyValidation(t *testing.T) {
	inst := lineInstance(t, 4, 0)
	inst.Producer = 9
	if _, err := SolveGreedyCtx(context.Background(), inst, DefaultOptions()); err == nil {
		t.Error("bad producer: want error")
	}
}

func TestSolveGreedyAssignsEveryone(t *testing.T) {
	inst := lineInstance(t, 12, 0)
	sol, err := SolveGreedyCtx(context.Background(), inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	openSet := map[int]bool{0: true}
	for _, f := range sol.Facilities {
		if f == 0 {
			t.Error("producer opened as facility")
		}
		openSet[f] = true
	}
	for j, a := range sol.Assign {
		if !openSet[a] {
			t.Errorf("Assign[%d] = %d not open", j, a)
		}
		if inst.ConnCost[a*inst.N+j] != sol.Alpha[j] {
			t.Errorf("Assign[%d] not the recorded best cost", j)
		}
	}
}

func TestSolveGreedyOpensOnLongLine(t *testing.T) {
	// Far demands on a long line make a cache clearly profitable.
	inst := lineInstance(t, 20, 0)
	sol, err := SolveGreedyCtx(context.Background(), inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Facilities) == 0 {
		t.Fatal("greedy opened nothing on a 20-node line")
	}
}

func TestSolveGreedySkipsFullNodes(t *testing.T) {
	g := graph.NewGrid(3, 3)
	st := cache.NewState(9, 1)
	for _, v := range []int{0, 1, 2, 3, 5, 6, 7} {
		if err := st.Store(v, 42); err != nil {
			t.Fatal(err)
		}
	}
	inst := instanceFrom(g, st, 4)
	sol, err := SolveGreedyCtx(context.Background(), inst, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sol.Facilities {
		if f != 8 {
			t.Errorf("full node %d opened", f)
		}
	}
}

// TestGreedyVersusPrimalDualObjective sanity-checks the ablation: both
// heuristics must yield feasible solutions within a small factor of each
// other on random instances (neither dominates, but neither should be
// wildly worse).
func TestGreedyVersusPrimalDualObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(10)
		g := randomConnectedGraph(rng, n)
		st := cache.NewState(n, 4)
		producer := rng.Intn(n)
		inst := instanceFrom(g, st, producer)

		objective := func(sol *Solution) float64 {
			total := 0.0
			for _, f := range sol.Facilities {
				total += inst.FacilityCost[f]
			}
			for j := 0; j < n; j++ {
				if j == producer {
					continue
				}
				best := inst.ConnCost[producer*inst.N+j]
				for _, f := range sol.Facilities {
					if c := inst.ConnCost[f*inst.N+j]; c < best {
						best = c
					}
				}
				total += best
			}
			return total
		}

		greedy, err := SolveGreedyCtx(context.Background(), inst, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		pd, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("trial %d primal-dual: %v", trial, err)
		}
		og, op := objective(greedy), objective(pd)
		if og <= 0 || op <= 0 || math.IsInf(og, 1) || math.IsInf(op, 1) {
			t.Fatalf("trial %d: degenerate objectives %g, %g", trial, og, op)
		}
		if og > 4*op || op > 4*og {
			t.Errorf("trial %d: heuristics diverge wildly: greedy %g vs primal-dual %g", trial, og, op)
		}
	}
}
