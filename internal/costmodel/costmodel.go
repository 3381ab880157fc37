// Package costmodel is the stateful cost oracle behind every solver: it
// owns the fairness degree costs of Eq. (1), the node contention weights
// w_k·(1+S(k)) and the memoised all-pairs path contention cost matrix of
// Eq. (2), and keeps them consistent under an explicit mutation API
// (Commit, Evict) with *delta updates*. Committing one chunk changes S(k)
// at a handful of nodes; instead of the O(N·(N+E)) full refresh
// Algorithm 1 used to pay before every chunk, the model recomputes f_i for
// the touched nodes only and repairs just the c_ij entries whose cached
// shortest paths run through nodes with changed weights
// (graph.PathCache.RepairNodeCostPaths does the dirty-cone tracking). A
// model is bound to one graph for life: a topology change builds a new
// model over the same cache state.
//
// Invariants:
//
//   - Incremental results are byte-identical to a from-scratch recompute.
//     This holds because the contention weights are integer-valued
//     (deg·(1+S)), so float64 path sums are exact and analytic ±Δ endpoint
//     shifts equal fresh additions bit for bit. The equivalence tests
//     assert it across grid/random/clustered topologies.
//   - A correctness fallback to full recompute always exists: repairs
//     revert to full row sweeps when too many nodes changed at once (the
//     repair would not be cheaper) or when Options.DisableIncremental is
//     set (the oracle the equivalence tests compare against).
//   - All state mutations must flow through the model. Mutating the
//     underlying cache.State (or battery levels) directly leaves the
//     matrices stale.
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
	"sync"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/graph"
	"repro/internal/pool"
)

// Options fixes how the model weighs the fairness terms and whether the
// delta-update machinery is active.
type Options struct {
	// FairnessWeight scales the storage Fairness Degree Cost (Eq. 1).
	FairnessWeight float64
	// BatteryWeight scales the battery fairness term (footnote 1); 0
	// ignores battery levels.
	BatteryWeight float64
	// DisableIncremental forces every refresh through the full-recompute
	// fallback. It exists as the correctness oracle for the equivalence
	// tests and as an escape hatch; the delta path is the default.
	DisableIncremental bool
}

// Stats counts the work the model has done, for benchmarks and the
// service's warm/cold accounting.
type Stats struct {
	// FullBuilds counts complete matrix builds (cold refreshes and
	// fallback refreshes).
	FullBuilds int
	// Repairs counts incremental refresh passes.
	Repairs int
	// CellsRecomputed totals the matrix cells revisited by repairs — the
	// number a full build would count as N² per refresh.
	CellsRecomputed int
	// WarmForks counts forks that reused this model's matrices.
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

	// Matrix state: flat row-major matrices (stride N) valid for the
	// weights at the last refresh, plus the per-node weight deltas
	// accumulated since then. Flat storage keeps a warm fork to two copy
	// calls and row views stride-indexed borrows.
	c       []float64
	pred    []int32
	built   bool
	pending []int // nodes with accumulated deltas, in first-touch order
	queued  []bool
	delta   []float64

	// repair holds one repair scratch per pool worker, chosen by the
	// worker slot of pool.ForEachW, so concurrent row repairs never share
	// one and a warm model's repairs allocate no bookkeeping.
	repair []*graph.RepairScratch

	hopMu   sync.Mutex
	hopDist [][]float64

	// statsMu guards stats: counters are the one thing concurrent readers
	// of a fully-built model still write (ForkCtx on a shared base model).
	statsMu sync.Mutex
	stats   Stats
}

// New returns a model over the given topology, shared path cache (nil for
// a private one) and cache state. The matrices build lazily on the first
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
		g:      g,
		pc:     pc,
		st:     st,
		opts:   opts,
		w:      make([]float64, n),
		fair:   make([]float64, n),
		queued: make([]bool, n),
		delta:  make([]float64, n),
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

// MatrixCells returns the size of the model's contention matrices in
// cells: N² once they are built, 0 before the first refresh. It is the
// peak-memory accounting hook of the sharded solve path, which reports
// Σ nᵢ² over region models against the N² a global model would hold.
func (m *Model) MatrixCells() int {
	if !m.built {
		return 0
	}
	return m.g.NumNodes() * m.g.NumNodes()
}

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
// fairness cost refresh immediately (O(1)), the matrix repair is deferred
// and batched until the next refresh.
func (m *Model) touch(k int) {
	w := contention.NodeCost(m.g, k) * float64(1+m.st.Stored(k))
	if w != m.w[k] {
		if m.built {
			if !m.queued[k] {
				m.queued[k] = true
				m.pending = append(m.pending, k)
			}
			m.delta[k] += w - m.w[k]
		}
		m.w[k] = w
	}
	m.fair[k] = m.fairnessAt(k)
}

// Commit stores chunk on node and applies the delta update: node's
// fairness degree and contention weight refresh immediately, the affected
// c_ij entries are repaired lazily on the next cost read. Store errors
// (full, duplicate, out of range) pass through untouched.
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

// RefreshCtx brings the matrices up to date: a cold build when none exist,
// a batched repair of the pending deltas otherwise. Independent rows fan
// out over p; rows land in their own slots, so the result is
// byte-identical at any pool width. A repair cancelled mid-flight leaves
// some rows shifted and some not, so it invalidates the matrices; the next
// refresh recovers through the full rebuild path.
func (m *Model) RefreshCtx(ctx context.Context, p *pool.Pool) error {
	if !m.built || m.opts.DisableIncremental {
		return m.rebuild(ctx, p)
	}
	if len(m.pending) == 0 {
		return nil
	}
	changed := m.pending[:0]
	for _, k := range m.pending {
		if m.delta[k] != 0 {
			changed = append(changed, k)
		} else {
			m.queued[k] = false
		}
	}
	m.pending = changed
	if len(changed) == 0 {
		return nil
	}
	// Fallback: when a large fraction of the nodes moved at once, the
	// repair cones cover most of the matrix anyway — the full sweep is
	// the cheaper (and trivially correct) path.
	if len(changed) > m.g.NumNodes()/4 {
		return m.rebuild(ctx, p)
	}
	n := m.g.NumNodes()
	for len(m.repair) < p.Workers() {
		m.repair = append(m.repair, graph.NewRepairScratch(n))
	}
	touched := make([]int, n)
	err := p.ForEachW(ctx, n, func(wk, i int) {
		touched[i] = m.pc.RepairNodeCostPaths(i, m.w, changed, m.delta, m.c[i*n:(i+1)*n], m.pred[i*n:(i+1)*n], m.repair[wk])
	})
	if err != nil {
		// Rows repaired before the cancellation have already shifted
		// their cells in place; repairing again with the still-queued
		// deltas would double-apply them. Invalidate the matrices so the
		// next refresh takes the full rebuild, which only reads the
		// (already current) weights.
		m.built = false
		return err
	}
	m.clearPending()
	m.bumpStats(func(st *Stats) {
		st.Repairs++
		for _, t := range touched {
			st.CellsRecomputed += t
		}
	})
	return nil
}

// rebuild is the full-recompute path: one weighted sweep per source over
// the cached BFS layer structure, identical to contention.ComputeCostsCtx.
func (m *Model) rebuild(ctx context.Context, p *pool.Pool) error {
	n := m.g.NumNodes()
	if m.c == nil {
		m.c = make([]float64, n*n)
		m.pred = make([]int32, n*n)
	}
	err := p.ForEach(ctx, n, func(i int) {
		m.pc.NodeCostPathsInto(i, m.w, m.c[i*n:(i+1)*n], m.pred[i*n:(i+1)*n])
	})
	if err != nil {
		return err
	}
	m.built = true
	m.clearPending()
	m.bumpStats(func(st *Stats) { st.FullBuilds++ })
	return nil
}

func (m *Model) clearPending() {
	for _, k := range m.pending {
		m.queued[k] = false
		m.delta[k] = 0
	}
	m.pending = m.pending[:0]
}

// CostsCtx refreshes and returns the Path Contention Cost matrix. The
// returned view is owned by the model and borrowed by the caller: it must
// be treated as read-only and becomes stale after the next mutation —
// exactly the lifetime of one per-chunk ConFL phase.
func (m *Model) CostsCtx(ctx context.Context, p *pool.Pool) (*contention.Costs, error) {
	if err := m.RefreshCtx(ctx, p); err != nil {
		return nil, err
	}
	return &contention.Costs{N: m.g.NumNodes(), C: m.c, Pred: m.pred}, nil
}

// FacilityCosts returns a fresh slice of the weighted fairness costs with
// the producer excluded (+Inf), the facility-cost vector of Algorithm 1's
// per-chunk ConFL instance.
func (m *Model) FacilityCosts(producer int) []float64 {
	return m.FacilityCostsInto(producer, nil)
}

// FacilityCostsInto is FacilityCosts writing into dst when it has the right
// length (allocating otherwise), so the per-chunk loop reuses one scratch
// vector instead of allocating per chunk. It returns the filled slice.
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
// (+Inf for unreachable pairs), built from the cached per-source BFS and
// memoised — the hop-count baseline's metric is topology-only, so one
// build serves every solve. Safe for concurrent use.
func (m *Model) HopMatrixCtx(ctx context.Context, p *pool.Pool) ([][]float64, error) {
	m.hopMu.Lock()
	defer m.hopMu.Unlock()
	if m.hopDist != nil {
		return m.hopDist, nil
	}
	n := m.g.NumNodes()
	dist := make([][]float64, n)
	err := p.ForEach(ctx, n, func(i int) {
		hops := m.pc.HopDistances(i)
		row := make([]float64, n)
		for j, h := range hops {
			if h == graph.Unreachable {
				row[j] = math.Inf(1)
			} else {
				row[j] = float64(h)
			}
		}
		dist[i] = row
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
// counts — the fork copies the receiver's repaired matrices instead of
// rebuilding them, turning a warm-topology solve's cold start into an
// O(N²) copy. Otherwise it falls back to a cold model. The fork mutates
// independently of the receiver.
func (m *Model) ForkCtx(ctx context.Context, p *pool.Pool, st *cache.State, opts Options) (*Model, error) {
	child, err := New(m.g, m.pc, st, opts)
	if err != nil {
		return nil, err
	}
	if err := m.RefreshCtx(ctx, p); err != nil {
		return nil, err
	}
	for i := range m.w {
		if child.w[i] != m.w[i] {
			m.bumpStats(func(st *Stats) { st.ColdForks++ })
			return child, nil
		}
	}
	// Flat matrices make the warm fork two bulk copies — a pair of
	// allocations and memmoves instead of 2N row builds.
	child.c = append([]float64(nil), m.c...)
	child.pred = append([]int32(nil), m.pred...)
	child.built = true
	m.bumpStats(func(st *Stats) { st.WarmForks++ })
	return child, nil
}

// Verify recomputes every cost from scratch and compares it against the
// incremental state, returning an error naming the first divergence. It is
// the debugging hook behind the fallback contract; tests use it after
// randomized mutation sequences.
func (m *Model) Verify(ctx context.Context, p *pool.Pool) error {
	if err := m.RefreshCtx(ctx, p); err != nil {
		return err
	}
	fresh := contention.ComputeCosts(m.g, m.st)
	n := m.g.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m.c[i*n+j] != fresh.At(i, j) {
				return fmt.Errorf("costmodel: C[%d][%d] drifted: incremental %v, fresh %v", i, j, m.c[i*n+j], fresh.At(i, j))
			}
			if m.pred[i*n+j] != fresh.Pred[i*n+j] {
				return fmt.Errorf("costmodel: Pred[%d][%d] drifted: incremental %d, fresh %d", i, j, m.pred[i*n+j], fresh.Pred[i*n+j])
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
