package steiner

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// MaxExactTerminals bounds the Dreyfus–Wagner terminal count: the dynamic
// program is O(3^k·N + 2^k·N²) and becomes impractical beyond this.
const MaxExactTerminals = 14

// ExactCost returns the optimal Steiner tree cost connecting terminals
// under edge weights w, using the Dreyfus–Wagner dynamic program. It is
// exponential in len(terminals) (capped at MaxExactTerminals). It runs one
// Dijkstra per node over w read once per arc, and allocates its own table
// on every call; a caller that already holds the all-pairs distances uses
// ExactCostDist.
func ExactCost(g *graph.Graph, w graph.EdgeWeightFunc, terminals []int) (float64, error) {
	n := g.NumNodes()
	var arcs graph.Arcs
	arcs.Fill(g, w)
	var heap graph.DijkstraScratch
	heap.Grow(n)
	pred := make([]int32, n)
	dist := make([][]float64, n)
	for v := range dist {
		dist[v] = make([]float64, n)
		arcs.ShortestPaths(v, dist[v], pred, &heap, nil)
	}
	return ExactCostDist(dist, terminals, nil)
}

// ExactScratch is the reusable storage of ExactCostDist: the sorted
// terminal list and the flat 2^(k−1)·N dynamic-program table, which only
// grows. One scratch serves any number of sequential calls.
type ExactScratch struct {
	ts []int
	dp []float64
}

// ExactCostDist is ExactCost over precomputed all-pairs shortest-path
// distances dist[u][v] (graph.Infinite when disconnected), with the table
// borrowed from s (nil allocates a transient one). When dist holds
// Graph.Dijkstra's distances under w, the cost equals ExactCost(g, w,
// terminals) bit for bit.
func ExactCostDist(dist [][]float64, terminals []int, s *ExactScratch) (float64, error) {
	if s == nil {
		s = &ExactScratch{}
	}
	s.ts = append(s.ts[:0], terminals...)
	slices.Sort(s.ts)
	ts := slices.Compact(s.ts)
	if len(ts) <= 1 {
		return 0, nil
	}
	if len(ts) > MaxExactTerminals {
		return 0, fmt.Errorf("steiner: %d terminals exceeds exact limit %d", len(ts), MaxExactTerminals)
	}
	n := len(dist)
	for _, t := range ts {
		if t < 0 || t >= n {
			return 0, fmt.Errorf("steiner: terminal %d out of range [0,%d)", t, n)
		}
	}
	for _, t := range ts[1:] {
		if dist[ts[0]][t] == graph.Infinite {
			return 0, fmt.Errorf("%w: %v", ErrDisconnected, ts)
		}
	}

	// dp[S·n+v]: cost of the optimal tree spanning terminal subset S ∪ {v}.
	// Terminals are indexed by position in ts; the last terminal is the
	// root and excluded from subsets (standard trick halves the table).
	// Every subset of S is numerically below S, so one ascending pass
	// fills the table without clearing it first.
	k := len(ts) - 1
	root := ts[k]
	full := 1 << k
	if len(s.dp) < full*n {
		s.dp = make([]float64, full*n)
	}
	dp := s.dp[:full*n]
	for set := 1; set < full; set++ {
		row := dp[set*n : (set+1)*n]
		if set&(set-1) == 0 {
			copy(row, dist[ts[bits.TrailingZeros(uint(set))]])
			continue
		}
		// Merge step: combine two disjoint sub-subsets at v.
		for v := 0; v < n; v++ {
			best := graph.Infinite
			for sub := (set - 1) & set; sub > 0; sub = (sub - 1) & set {
				if other := set ^ sub; sub < other {
					// Each unordered pair once.
					if c := dp[sub*n+v] + dp[other*n+v]; c < best {
						best = c
					}
				}
			}
			row[v] = best
		}
		// Relax step: move the junction along shortest paths. A full
		// Dijkstra over the dp layer is equivalent to relaxing with the
		// all-pairs closure; n is small here so the O(n²) closure is fine.
		for v := 0; v < n; v++ {
			best := row[v]
			for u := 0; u < n; u++ {
				if row[u] == graph.Infinite || dist[u][v] == graph.Infinite {
					continue
				}
				if c := row[u] + dist[u][v]; c < best {
					best = c
				}
			}
			row[v] = best
		}
	}
	return dp[(full-1)*n+root], nil
}
