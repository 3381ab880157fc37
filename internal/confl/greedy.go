package confl

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// SolveGreedyCtx solves the same per-chunk ConFL instance with a greedy
// heuristic instead of the primal-dual dual growth. The paper's related
// work (Sec. II) notes that greedy ConFL solutions [23] lack approximation
// guarantees but can perform well in practice; this implementation exists
// as an ablation point against the guaranteed primal-dual algorithm.
//
// The greedy rule: starting from the producer alone, repeatedly open the
// facility with the best marginal gain
//
//	gain(i) = access savings − f_i − connection increment(i)
//
// where the connection increment is i's cheapest contention path to an
// already open facility (a proxy for the Steiner growth), and stop when no
// facility has positive gain. The returned Solution mirrors
// SolveScratchCtx's. The marginal-gain scan over candidates fans out over
// opts.Pool (deterministically — gains land in per-candidate slots and the
// arg-max scan stays sequential), and ctx is checked once per opened
// facility.
func SolveGreedyCtx(ctx context.Context, inst Instance, opts Options) (*Solution, error) {
	if err := validate(inst); err != nil {
		return nil, err
	}
	n := inst.N

	open := make([]bool, n)
	open[inst.Producer] = true

	// best[j]: current cheapest service cost for demand j.
	best := make([]float64, n)
	assign := make([]int, n)
	for j := 0; j < n; j++ {
		best[j] = math.Inf(1)
		assign[j] = -1
		for i := 0; i < n; i++ {
			if c := inst.ConnCost[i*n+j]; open[i] && c < best[j] {
				best[j] = c
				assign[j] = i
			}
		}
	}

	var facilities []int
	gains := make([]float64, n)
	for {
		// Each candidate's marginal gain depends only on the fixed open
		// set and service costs, so the scan parallelises into per-slot
		// writes; the arg-max below keeps the sequential tie-breaking.
		err := opts.Pool.ForEach(ctx, n, func(_, i int) {
			gains[i] = math.Inf(-1)
			if open[i] || i == inst.Producer || math.IsInf(inst.FacilityCost[i], 1) {
				return
			}
			conn := inst.connRow(i)
			savings := 0.0
			for j := 0; j < n; j++ {
				if d := best[j] - conn[j]; d > 0 {
					savings += d
				}
			}
			// Steiner growth proxy: the cheapest connection from i to
			// the currently open set.
			connect := math.Inf(1)
			for k := 0; k < n; k++ {
				if open[k] && conn[k] < connect {
					connect = conn[k]
				}
			}
			gains[i] = savings - inst.FacilityCost[i] - connect
		})
		if err != nil {
			return nil, fmt.Errorf("confl: greedy interrupted: %w", err)
		}
		bestGain, bestNode := 0.0, -1
		for i := 0; i < n; i++ {
			if gain := gains[i]; gain > bestGain+1e-12 {
				bestGain, bestNode = gain, i
			}
		}
		if bestNode < 0 {
			break
		}
		open[bestNode] = true
		facilities = append(facilities, bestNode)
		conn := inst.connRow(bestNode)
		for j := 0; j < n; j++ {
			if c := conn[j]; c < best[j] {
				best[j] = c
				assign[j] = bestNode
			}
		}
	}

	slices.Sort(facilities)
	return &Solution{
		Facilities: facilities,
		Assign:     assign,
		Alpha:      best, // the greedy's service costs play the dual role
	}, nil
}
