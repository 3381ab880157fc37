// Package contention implements the paper's contention-induced delay model
// (Sec. III-C): per-node contention costs, the path contention cost matrix
// of Eq. (2), contention-scaled edge costs for dissemination trees, and the
// 802.11 DCF delay estimate that the cost is a linearisation of.
package contention

import (
	"repro/internal/cache"
	"repro/internal/graph"
)

// NodeCost returns w_k, the Node Contention Cost of node k: its degree.
// Every neighbor sends requests to k and k returns chunks to each direct
// neighbor, so the per-chunk transmission count through k equals its degree.
func NodeCost(g *graph.Graph, k int) float64 {
	return float64(g.Degree(k))
}

// Weights returns the effective relay weight of every node given the
// current cache state: w_k · (1 + S(k)). Previously cached chunks inflate a
// node's contention because each cached chunk is also transmitted to
// neighbors through the same airspace (Eq. 2).
func Weights(g *graph.Graph, st *cache.State) []float64 {
	w := make([]float64, g.NumNodes())
	for k := range w {
		w[k] = NodeCost(g, k) * float64(1+st.Stored(k))
	}
	return w
}

// Costs is the all-pairs Path Contention Cost matrix c_ij of Eq. (2),
// computed over hop-shortest paths (cheapest among equal-hop paths), along
// with predecessor matrices for path reconstruction. Both matrices are
// stored flat in row-major order with stride N, so a refresh that reuses
// the storage is a copy over two allocations and borrowed views stay
// read-only slices into one backing array.
type Costs struct {
	// N is the matrix dimension (nodes per side).
	N int
	// C holds the contention cost of j fetching a chunk from i at C[i*N+j]
	// (symmetric; 0 on the diagonal; +Inf for disconnected pairs).
	C []float64
	// Pred holds j's predecessor on the chosen path from i at Pred[i*N+j]
	// (-1 when j == i or j is unreachable from i). It is nil in the cost
	// model's borrowed view, which keeps no paths; Path and PredRow need
	// a matrix from ComputeCosts.
	Pred []int32
}

// NewCosts returns a zeroed flat cost/pred matrix pair of dimension n.
func NewCosts(n int) *Costs {
	return &Costs{N: n, C: make([]float64, n*n), Pred: make([]int32, n*n)}
}

// At returns c_ij.
func (c *Costs) At(i, j int) float64 { return c.C[i*c.N+j] }

// Row returns row i of the cost matrix as a read-only view.
func (c *Costs) Row(i int) []float64 { return c.C[i*c.N : (i+1)*c.N] }

// PredRow returns row i of the predecessor matrix as a read-only view.
func (c *Costs) PredRow(i int) []int32 { return c.Pred[i*c.N : (i+1)*c.N] }

// Rows materialises row-header views over the flat cost matrix for the
// off-hot-path consumers that index [][]float64 (baseline selection, the
// exact search, metrics). The headers alias the flat storage, so the borrow
// stays read-only.
func (c *Costs) Rows() [][]float64 {
	rows := make([][]float64, c.N)
	for i := range rows {
		rows[i] = c.Row(i)
	}
	return rows
}

// ComputeCosts evaluates Eq. (2) for every node pair under the given cache
// state. It runs one layered-BFS pass per source: O(N·(N+E)).
func ComputeCosts(g *graph.Graph, st *cache.State) *Costs {
	n := g.NumNodes()
	w := Weights(g, st)
	c := NewCosts(n)
	for i := 0; i < n; i++ {
		cost, pred := g.NodeCostPaths(i, w)
		copy(c.Row(i), cost)
		copy(c.PredRow(i), pred)
	}
	return c
}

// Path returns the node sequence of the path underlying c_ij, including
// both endpoints, or nil when unreachable.
func (c *Costs) Path(i, j int) []int {
	return graph.PathTo(c.PredRow(i), i, j)
}

// EdgeCost returns c_e for the edge {u, v}: the contention cost of the
// one-hop path between its endpoints, w_u(1+S(u)) + w_v(1+S(v)). The
// dissemination term of the objective charges this per tree edge.
func EdgeCost(g *graph.Graph, st *cache.State, u, v int) float64 {
	return NodeCost(g, u)*float64(1+st.Stored(u)) + NodeCost(g, v)*float64(1+st.Stored(v))
}

// EdgeCostFunc adapts EdgeCost to the graph.EdgeWeightFunc signature for a
// fixed state, for use with Dijkstra and Steiner construction.
func EdgeCostFunc(g *graph.Graph, st *cache.State) graph.EdgeWeightFunc {
	return func(u, v int) float64 { return EdgeCost(g, st, u, v) }
}

// DCFParams parametrises the 802.11 DCF contention-delay estimate of
// Sec. III-C:
//
//	d(k,c) = DIFS + m_k·c + w_k·T_d + m_k²·T_c
//
// with m_k back-off slots (approximated by S(k)), c the back-off slot
// length, w_k the chunks transmitted among neighbors, T_d the chunk
// transmission duration and T_c the collision duration.
type DCFParams struct {
	// DIFS is the DCF inter-frame space.
	DIFS float64
	// Slot is the back-off slot length c.
	Slot float64
	// TData is T_d, the transmission duration of one data chunk.
	TData float64
	// TCollision is T_c, the duration of a collision.
	TCollision float64
}

// DefaultDCF returns 802.11b DSSS timings in microseconds with a 1500-byte
// chunk at 11 Mb/s (T_d ≈ 1091 µs) and T_c ≈ T_d, the paper's
// approximation regime (T_d ≈ T_c ≫ slot).
func DefaultDCF() DCFParams {
	return DCFParams{
		DIFS:       50,
		Slot:       20,
		TData:      1091,
		TCollision: 1091,
	}
}

// HopDelay returns the estimated one-hop contention delay at node k under
// the current cache state, using the full four-term DCF formula.
func (p DCFParams) HopDelay(g *graph.Graph, st *cache.State, k int) float64 {
	mk := float64(st.Stored(k))
	wk := NodeCost(g, k)
	return p.DIFS + mk*p.Slot + wk*p.TData + mk*mk*p.TCollision
}

// LinearHopDelay returns the paper's linearised delay
// DIFS + T_d·w_k·(1 + S(k)), i.e. an affine transformation of the per-node
// contention cost used throughout the evaluation.
func (p DCFParams) LinearHopDelay(g *graph.Graph, st *cache.State, k int) float64 {
	return p.DIFS + p.TData*NodeCost(g, k)*float64(1+st.Stored(k))
}

// PathDelay sums LinearHopDelay over a node path, converting a contention
// cost path into an access-latency estimate.
func (p DCFParams) PathDelay(g *graph.Graph, st *cache.State, path []int) float64 {
	total := 0.0
	for _, k := range path {
		total += p.LinearHopDelay(g, st, k)
	}
	return total
}
