// Package costmodel is the stateful cost oracle behind every solver: it
// owns the fairness degree costs of Eq. (1), the node contention weights
// w_k·(1+S(k)) and the memoised all-pairs path contention cost matrix of
// Eq. (2), and keeps them consistent under an explicit mutation API
// (Commit, Evict). A mutation refreshes the touched node's weight and
// fairness cost at once; the next read whose weights differ from those of
// the last sweep sweeps every row once over the shared path cache's
// per-source layer DAG (graph.PathCache.NodeCostsInto), so the refresh
// Algorithm 1 pays before every chunk skips the BFS and ordering work
// entirely. A model is bound to one graph for life: a topology change
// builds a new model over the same cache state.
//
// Invariants:
//
//   - The matrix is byte-identical to contention.ComputeCosts over the
//     current state after every refresh. The sweep is NodeCostPaths with
//     the BFS memoised, and Verify and the randomized mutation tests
//     compare them bit for bit across grid/random/clustered topologies.
//   - A refresh either completes or leaves the matrix stale: a cancelled
//     sweep returns its error and the next refresh sweeps every row again,
//     even if the weights have moved back to those of the last sweep.
//   - All state mutations must flow through the model. Mutating the
//     underlying cache.State (or battery levels) directly leaves the
//     matrix stale.
//
// A Model is not safe for concurrent mutation. A fully refreshed model
// that is no longer mutated (the placement service's per-topology base
// model) is safe for concurrent reads; HopMatrixCtx is internally
// synchronised for that use.
package costmodel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/graph"
	"repro/internal/pool"
)

// Options fixes how the model weighs the fairness terms.
type Options struct {
	// FairnessWeight scales the storage Fairness Degree Cost (Eq. 1).
	FairnessWeight float64
	// BatteryWeight scales the battery fairness term (footnote 1); 0
	// ignores battery levels.
	BatteryWeight float64
}

// Stats counts the work the model has done, for benchmarks and the
// service's warm/cold accounting.
type Stats struct {
	// Sweeps counts completed matrix sweeps: the first refresh and every
	// refresh that found the weights moved since the last sweep.
	Sweeps int
	// CellsRecomputed totals the matrix cells the sweeps wrote, N² each.
	CellsRecomputed int
	// WarmForks counts forks that reused this model's matrix.
	WarmForks int
	// ColdForks counts forks that had to fall back to a cold model.
	ColdForks int
}

// Errors returned by the model.
var (
	ErrMismatch = errors.New("costmodel: graph/state size mismatch")
)

// Model is the incremental cost oracle for one (topology, cache state)
// pair. Zero-value is not usable; construct with New.
type Model struct {
	g    *graph.Graph
	pc   *graph.PathCache
	st   *cache.State
	opts Options

	w    []float64 // current node weights w_k·(1+S(k))
	fair []float64 // weighted combined fairness cost; +Inf when full

	// c is the flat row-major matrix (stride N), allocated by the first
	// refresh. Flat storage keeps a warm fork to one copy and row views
	// stride-indexed borrows. swept holds the weights of the last
	// completed sweep: c is current exactly when they equal w.
	c     []float64
	swept []float64

	hopMu   sync.Mutex
	hopDist [][]float64

	// statsMu guards stats: counters are the one thing concurrent readers
	// of a fully-built model still write (ForkCtx on a shared base model).
	statsMu sync.Mutex
	stats   Stats
}

// New returns a model over the given topology, shared path cache (nil for
// a private one) and cache state. The matrix builds lazily on the first
// refresh; construction is cheap. Negative weights are rejected.
func New(g *graph.Graph, pc *graph.PathCache, st *cache.State, opts Options) (*Model, error) {
	if g == nil || st == nil || g.NumNodes() != st.NumNodes() {
		return nil, ErrMismatch
	}
	if opts.FairnessWeight < 0 || opts.BatteryWeight < 0 {
		return nil, fmt.Errorf("costmodel: weights (%g, %g) must be >= 0", opts.FairnessWeight, opts.BatteryWeight)
	}
	if pc == nil {
		pc = graph.NewPathCache(g)
	}
	n := g.NumNodes()
	m := &Model{
		g:    g,
		pc:   pc,
		st:   st,
		opts: opts,
		w:    make([]float64, n),
		fair: make([]float64, n),
	}
	for k := 0; k < n; k++ {
		m.w[k] = contention.NodeCost(g, k) * float64(1+st.Stored(k))
		m.fair[k] = m.fairnessAt(k)
	}
	return m, nil
}

// Graph returns the topology the model is bound to.
func (m *Model) Graph() *graph.Graph { return m.g }

// State returns the cache state the model maintains costs for.
func (m *Model) State() *cache.State { return m.st }

// PathCache returns the shared shortest-path memo.
func (m *Model) PathCache() *graph.PathCache { return m.pc }

// MatrixCells returns the size of the model's contention matrix in cells:
// N² once the first refresh has allocated it, 0 before. It is the
// peak-memory accounting hook of the sharded solve path, which reports
// Σ nᵢ² over region models against the N² a global model would hold.
func (m *Model) MatrixCells() int { return len(m.c) }

// Stats returns the work counters accumulated so far.
func (m *Model) Stats() Stats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return m.stats
}

func (m *Model) bumpStats(f func(*Stats)) {
	m.statsMu.Lock()
	f(&m.stats)
	m.statsMu.Unlock()
}

// fairnessAt evaluates the weighted combined fairness cost of node i,
// matching Algorithm 1's facility costs: full nodes stay excluded (+Inf)
// even at weight 0.
func (m *Model) fairnessAt(i int) float64 {
	if m.st.Free(i) <= 0 {
		return math.Inf(1)
	}
	return m.st.CombinedFairnessCost(i, m.opts.FairnessWeight, m.opts.BatteryWeight)
}

// touch records that node k's stored count changed: its weight and
// fairness cost refresh immediately (O(1)), the matrix on the next read.
func (m *Model) touch(k int) {
	m.w[k] = contention.NodeCost(m.g, k) * float64(1+m.st.Stored(k))
	m.fair[k] = m.fairnessAt(k)
}

// Commit stores chunk on node: node's fairness degree and contention
// weight refresh immediately, the matrix on the next cost read. Store
// errors (full, duplicate, out of range) pass through untouched.
func (m *Model) Commit(node, chunk int) error {
	if err := m.st.Store(node, chunk); err != nil {
		return err
	}
	m.touch(node)
	return nil
}

// Evict removes chunk from node, reporting whether anything was evicted
// (evicting an absent chunk is a no-op, mirroring cache.State.Evict, and
// leaves the model untouched).
func (m *Model) Evict(node, chunk int) bool {
	if node < 0 || node >= m.st.NumNodes() || !m.st.Has(node, chunk) {
		return false
	}
	m.st.Evict(node, chunk)
	m.touch(node)
	return true
}

// RefreshCtx brings the matrix up to date with the weights. When they
// differ from the weights of the last completed sweep (or none has run
// yet), it sweeps every row over the path cache's layer DAG, fanned out
// over p; rows land in their own slots, so the result is byte-identical
// at any pool width. A sweep cancelled mid-flight returns the error and
// leaves the model stale, so the next refresh sweeps again.
func (m *Model) RefreshCtx(ctx context.Context, p *pool.Pool) error {
	if m.c != nil && slices.Equal(m.swept, m.w) {
		return nil
	}
	n := m.g.NumNodes()
	if m.c == nil {
		m.c = make([]float64, n*n)
	}
	m.swept = m.swept[:0]
	if err := p.ForEach(ctx, n, func(_, i int) {
		m.pc.NodeCostsInto(i, m.w, m.c[i*n:(i+1)*n])
	}); err != nil {
		return err
	}
	m.swept = append(m.swept, m.w...)
	m.bumpStats(func(st *Stats) {
		st.Sweeps++
		st.CellsRecomputed += n * n
	})
	return nil
}

// CostsCtx refreshes and returns the Path Contention Cost matrix. The
// returned view is owned by the model and borrowed by the caller: it must
// be treated as read-only and becomes stale after the next mutation —
// exactly the lifetime of one per-chunk ConFL phase. The view carries no
// predecessor matrix (Pred is nil): paths come from
// contention.ComputeCosts, and hop counts from PathCache.HopDistances.
func (m *Model) CostsCtx(ctx context.Context, p *pool.Pool) (*contention.Costs, error) {
	if err := m.RefreshCtx(ctx, p); err != nil {
		return nil, err
	}
	return &contention.Costs{N: m.g.NumNodes(), C: m.c}, nil
}

// FacilityCostsInto writes the weighted fairness costs with the producer
// excluded (+Inf), the facility-cost vector of Algorithm 1's per-chunk
// ConFL instance, into dst when it has the right length (allocating
// otherwise), so the per-chunk loop reuses one scratch vector instead of
// allocating per chunk. It returns the filled slice.
func (m *Model) FacilityCostsInto(producer int, dst []float64) []float64 {
	if len(dst) != len(m.fair) {
		dst = make([]float64, len(m.fair))
	}
	copy(dst, m.fair)
	if producer >= 0 && producer < len(dst) {
		dst[producer] = math.Inf(1)
	}
	return dst
}

// FairnessCosts returns a fresh copy of the weighted fairness costs with
// no producer mask (the exact solver filters candidates itself).
func (m *Model) FairnessCosts() []float64 {
	return append([]float64(nil), m.fair...)
}

// EdgeCost returns the contention cost of the one-hop path {u, v} under
// the current state: w_u(1+S(u)) + w_v(1+S(v)).
func (m *Model) EdgeCost(u, v int) float64 { return m.w[u] + m.w[v] }

// EdgeCostFunc adapts EdgeCost to the graph.EdgeWeightFunc signature for
// Dijkstra and Steiner construction. The returned function reads the live
// weights, so it always reflects the latest mutations.
func (m *Model) EdgeCostFunc() graph.EdgeWeightFunc {
	return func(u, v int) float64 { return m.EdgeCost(u, v) }
}

// HopMatrixCtx returns the all-pairs hop-distance matrix as float64s
// (+Inf for unreachable pairs), memoised — the hop-count baseline's metric
// is topology-only, so one build serves every solve. Its rows come
// straight from graph.BFS, one traversal per source fanned out over p with
// per-worker scratch, so a hop metric never builds the path cache's layer
// DAGs. Safe for concurrent use.
func (m *Model) HopMatrixCtx(ctx context.Context, p *pool.Pool) ([][]float64, error) {
	m.hopMu.Lock()
	defer m.hopMu.Unlock()
	if m.hopDist != nil {
		return m.hopDist, nil
	}
	n := m.g.NumNodes()
	flat := make([]float64, n*n)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	hops := make([][]int32, p.Workers())
	queues := make([][]int32, p.Workers())
	err := p.ForEach(ctx, n, func(w, i int) {
		if hops[w] == nil {
			hops[w] = make([]int32, n)
		}
		queues[w] = graph.BFS(m.g, []int{i}, -1, hops[w], queues[w])
		for j, h := range hops[w] {
			if h == graph.Unreachable {
				dist[i][j] = math.Inf(1)
			} else {
				dist[i][j] = float64(h)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m.hopDist = dist
	return dist, nil
}

// ForkCtx returns a model over st (sharing the receiver's graph and path
// cache) primed for a new solve. When st induces the same node weights as
// the receiver's state — every empty state does, regardless of capacities
// or battery levels, since weights depend only on degrees and stored
// counts — the fork copies the receiver's matrix instead of sweeping it,
// turning a warm-topology solve's cold start into an O(N²) copy.
// Otherwise it falls back to a cold model. The fork mutates independently
// of the receiver.
func (m *Model) ForkCtx(ctx context.Context, p *pool.Pool, st *cache.State, opts Options) (*Model, error) {
	child, err := New(m.g, m.pc, st, opts)
	if err != nil {
		return nil, err
	}
	if err := m.RefreshCtx(ctx, p); err != nil {
		return nil, err
	}
	if !slices.Equal(child.w, m.w) {
		m.bumpStats(func(st *Stats) { st.ColdForks++ })
		return child, nil
	}
	// The flat matrix makes the warm fork one allocation and memmove
	// instead of N row sweeps.
	child.c = append([]float64(nil), m.c...)
	child.swept = append([]float64(nil), m.swept...)
	m.bumpStats(func(st *Stats) { st.WarmForks++ })
	return child, nil
}

// Verify recomputes every cost from scratch with contention.ComputeCosts
// and compares it bit for bit against the refreshed model, returning an
// error naming the first divergence. Tests use it after randomized
// mutation sequences.
func (m *Model) Verify(ctx context.Context, p *pool.Pool) error {
	if err := m.RefreshCtx(ctx, p); err != nil {
		return err
	}
	fresh := contention.ComputeCosts(m.g, m.st)
	n := m.g.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(m.c[i*n+j]) != math.Float64bits(fresh.At(i, j)) {
				return fmt.Errorf("costmodel: C[%d][%d] drifted: model %v, fresh %v", i, j, m.c[i*n+j], fresh.At(i, j))
			}
		}
	}
	for k := range m.w {
		want := contention.NodeCost(m.g, k) * float64(1+m.st.Stored(k))
		if m.w[k] != want {
			return fmt.Errorf("costmodel: weight[%d] drifted: %v != %v", k, m.w[k], want)
		}
		if got, want := m.fair[k], m.fairnessAt(k); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			return fmt.Errorf("costmodel: fairness[%d] drifted: %v != %v", k, got, want)
		}
	}
	return nil
}
