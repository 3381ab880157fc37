package partition

import (
	"slices"

	"repro/internal/graph"
)

// StitchOptions configures the boundary reconciliation of Stitch.
type StitchOptions struct {
	// Producer is the global producer node; it always serves every chunk
	// and is never a droppable copy.
	Producer int
	// Halo is the hop radius around cut edges: only holders within Halo
	// hops of a boundary node are re-bid. 0 disables reconciliation.
	Halo int
	// CopyCharge is the cost one cached copy is charged when re-bidding:
	// a boundary copy is dropped when removing it raises the total access
	// cost by less than this. The sharded solve path calibrates it from
	// the regions' own decision-time costs.
	CopyCharge float64
	// Weights are the per-node contention weights (w_k of Eq. 2) the
	// access costs are evaluated under.
	Weights []float64
}

// StitchStats reports what the reconciliation pass did.
type StitchStats struct {
	// HaloNodes is the number of nodes within Halo hops of the boundary.
	HaloNodes int
	// Candidates counts the boundary-adjacent copies that were re-bid.
	Candidates int
	// Dropped counts the copies removed as redundant across the cut.
	Dropped int
}

// Stitch reconciles per-region placements across region boundaries. The
// input holders are the unioned per-chunk caching sets in original node
// ids; regions solve blind to each other, so copies near a cut edge are
// often redundant — the neighbor region placed its own copy a hop away.
// For each chunk, every holder within the halo of the boundary is re-bid
// in ascending node order: the copy is dropped when removing it raises
// the chunk's total access cost (layered-BFS path costs under
// opts.Weights, nearest-server assignment) by less than opts.CopyCharge.
// The pass is deterministic and never drops a chunk's last copy. The
// returned holder sets are fresh sorted slices; the input is not mutated.
func (p *Partition) Stitch(holders [][]int, opts StitchOptions) ([][]int, StitchStats) {
	var stats StitchStats
	out := make([][]int, len(holders))
	for n := range holders {
		out[n] = append([]int(nil), holders[n]...)
		slices.Sort(out[n])
	}
	if opts.Halo <= 0 || len(p.Boundary) == 0 {
		return out, stats
	}
	// Hops to the nearest boundary node, Unreachable beyond the halo.
	boundaryHops := make([]int, p.g.NumNodes())
	stats.HaloNodes = len(graph.BFS(p.g, p.Boundary, opts.Halo, boundaryHops, nil))
	for n := range out {
		out[n] = p.rebidChunk(out[n], boundaryHops, opts, &stats)
	}
	return out, stats
}

// rebidChunk runs the drop pass for one chunk's sorted holder set.
func (p *Partition) rebidChunk(holders []int, boundaryHops []int, opts StitchOptions, stats *StitchStats) []int {
	servers := serverSet(holders, opts.Producer)
	baseCost := p.accessCost(servers, opts.Weights)
	for _, h := range append([]int(nil), holders...) {
		if len(holders) <= 1 {
			break
		}
		if boundaryHops[h] == graph.Unreachable {
			continue
		}
		stats.Candidates++
		reduced := without(servers, h)
		cost := p.accessCost(reduced, opts.Weights)
		if cost-baseCost < opts.CopyCharge {
			holders = without(holders, h)
			servers = reduced
			baseCost = cost
			stats.Dropped++
		}
	}
	return holders
}

// serverSet returns holders ∪ {producer}, sorted.
func serverSet(holders []int, producer int) []int {
	servers := append([]int(nil), holders...)
	for _, h := range holders {
		if h == producer {
			return servers
		}
	}
	servers = append(servers, producer)
	slices.Sort(servers)
	return servers
}

// without returns sorted xs with one occurrence of v removed.
func without(xs []int, v int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// accessCost evaluates Σ_j min-path-cost(j → nearest server): the
// accessing-phase term of the paper's objective under a nearest-server
// assignment, computed with one multi-source layered-BFS DP. Mirroring
// graph.NodeCostPaths, a path's cost sums the weights of its nodes with
// the serving endpoint excluded, and among equal-hop paths the cheapest
// is taken — over the BFS visit order, which finishes each layer before
// the next, so the result is deterministic.
func (p *Partition) accessCost(servers []int, w []float64) float64 {
	g := p.g
	n := g.NumNodes()
	hops := make([]int, n)
	order := graph.BFS(g, servers, -1, hops, nil)
	// cost[v] is the cheapest weight sum over v's layer-decreasing paths
	// to any server; during the DP it includes the server's own weight so
	// intermediate sums compose, and rootW[v] remembers that weight so it
	// can be cancelled at the end (the cheapest parent is chosen by cost,
	// lowest id on ties, keeping rootW deterministic too).
	cost := make([]float64, n)
	rootW := make([]float64, n)
	for _, v := range order {
		if hops[v] == 0 {
			cost[v] = w[v]
			rootW[v] = w[v]
			continue
		}
		parent := -1
		for _, u := range g.Neighbors(v) {
			if hops[u] != hops[v]-1 {
				continue
			}
			if parent == -1 || cost[u] < cost[parent] || (cost[u] == cost[parent] && u < parent) {
				parent = u
			}
		}
		cost[v] = cost[parent] + w[v]
		rootW[v] = rootW[parent]
	}
	total := 0.0
	for v := 0; v < n; v++ {
		if hops[v] > 0 { // servers access locally for free
			total += cost[v] - rootW[v]
		}
	}
	return total
}
