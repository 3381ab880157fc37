// Package exact computes optimal per-chunk ConFL solutions — the role the
// paper's "Brtf" brute-force (PuLP) baseline plays. Go has no native LP
// ecosystem, so instead of wrapping a C solver this package performs a
// branch-and-bound search over caching sets with admissible lower bounds
// and the exact Dreyfus–Wagner Steiner cost, which returns the true optimum
// of objective (8) on small instances (and a best-found solution with an
// explicit optimality flag when a search budget is exceeded).
package exact

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/steiner"
)

// Options tunes the branch-and-bound search. The zero value searches
// exhaustively; the fairness weight and the topology come from the cost
// model a search runs on.
type Options struct {
	// MaxSubsetSize caps the caching-set size. 0 means the largest the
	// exact Steiner routine supports (steiner.MaxExactTerminals − 1,
	// leaving room for the producer terminal).
	MaxSubsetSize int
	// NodeBudget caps the number of branch-and-bound nodes explored; 0
	// means unlimited. When exceeded the search returns the best solution
	// found with Optimal = false.
	NodeBudget int
}

// Solution is the optimal (or budget-limited best) single-chunk placement.
type Solution struct {
	// Facilities is the optimal caching set, sorted.
	Facilities []int
	// Fairness, Access and Dissemination are the objective terms.
	Fairness      float64
	Access        float64
	Dissemination float64
	// Optimal reports whether the search completed exhaustively; false
	// means the node budget was hit and the result is a best-found bound.
	Optimal bool
	// Explored counts branch-and-bound nodes visited.
	Explored int
}

// Total returns the objective value Fairness + Access + Dissemination.
func (s *Solution) Total() float64 {
	return s.Fairness + s.Access + s.Dissemination
}

// Errors returned by the solver.
var (
	ErrBadInput = errors.New("exact: invalid input")
)

// solveChunkModel finds the optimal caching set for one chunk under the
// model's current state:
// min over A of Σ_{i∈A} f_i + Σ_j min_{i∈A∪{v}} c_ij + SteinerOpt(A ∪ {v}).
// The model supplies the fairness and contention costs; the caller commits
// the result back through it. ctx is checked inside the branch-and-bound
// every 128 explored nodes and before every exact Steiner evaluation, and
// throughout the precomputation
// (contention matrix, all-pairs Dijkstra), which fans out over pl; the
// search itself is sequential, so results are identical at any width.
func solveChunkModel(ctx context.Context, m *costmodel.Model, producer int, opts Options, pl *pool.Pool) (*Solution, error) {
	maxSize := opts.MaxSubsetSize
	if maxSize <= 0 || maxSize > steiner.MaxExactTerminals-1 {
		maxSize = steiner.MaxExactTerminals - 1
	}

	s, err := newSearch(ctx, m, producer, opts, maxSize, pl)
	if err != nil {
		return nil, fmt.Errorf("exact: search setup interrupted: %w", err)
	}
	s.ctx = ctx
	s.run()
	if s.ctxErr != nil {
		return nil, fmt.Errorf("exact: search interrupted: %w", s.ctxErr)
	}

	// Optimality is proven only when neither the node budget nor the
	// subset-size cap could have hidden a better solution.
	proven := !s.budgetHit && maxSize >= len(s.candidates)
	sol := &Solution{
		Facilities:    append([]int(nil), s.bestSet...),
		Fairness:      s.bestFair,
		Access:        s.bestAccess,
		Dissemination: s.bestSteiner,
		Optimal:       proven,
		Explored:      s.explored,
	}
	slices.Sort(sol.Facilities)
	return sol, nil
}

// search carries the branch-and-bound state.
type search struct {
	producer int
	opts     Options
	maxSize  int

	candidates []int       // eligible caching nodes, in branching order
	fair       []float64   // weighted fairness cost per node
	conn       [][]float64 // c_ij under the current state
	edgeCost   graph.EdgeWeightFunc
	spDist     [][]float64 // all-pairs shortest path dist under edgeCost
	// suffixMin[k][j]: min connection cost from candidates[k:] to j.
	suffixMin [][]float64
	// dw is the Dreyfus–Wagner table every exact Steiner cost reuses.
	dw steiner.ExactScratch
	// terminals, inTree and mstDist are the per-node bound buffers:
	// the producer plus the set under test, and closureMST's Prim state.
	terminals []int
	inTree    []bool
	mstDist   []float64

	demands []int // all nodes except the producer

	bestCost    float64
	bestSet     []int
	bestFair    float64
	bestAccess  float64
	bestSteiner float64

	explored  int
	budgetHit bool

	ctx    context.Context
	ctxErr error

	cur []int // current subset (candidate indices -> node ids)
}

func newSearch(ctx context.Context, m *costmodel.Model, producer int, opts Options, maxSize int, pl *pool.Pool) (*search, error) {
	g, st := m.Graph(), m.State()
	n := g.NumNodes()
	costs, err := m.CostsCtx(ctx, pl)
	if err != nil {
		return nil, err
	}
	s := &search{
		producer: producer,
		opts:     opts,
		maxSize:  maxSize,
		conn:     costs.Rows(),
		edgeCost: m.EdgeCostFunc(),
		bestCost: math.Inf(1),
	}
	s.fair = m.FairnessCosts()
	for j := 0; j < n; j++ {
		if j != producer {
			s.demands = append(s.demands, j)
		}
	}
	for i := 0; i < n; i++ {
		if i != producer && st.Free(i) > 0 {
			s.candidates = append(s.candidates, i)
		}
	}
	// Branch on high-savings candidates first for stronger pruning.
	savings := make(map[int]float64, len(s.candidates))
	for _, i := range s.candidates {
		total := 0.0
		for _, j := range s.demands {
			if d := s.conn[producer][j] - s.conn[i][j]; d > 0 {
				total += d
			}
		}
		savings[i] = total
	}
	// Stable: equal-savings candidates keep their ascending-id order,
	// which the branch-and-bound's deterministic search order relies on.
	slices.SortStableFunc(s.candidates, func(a, b int) int {
		return cmp.Compare(savings[b], savings[a])
	})

	// Suffix minima of connection costs over the branching order.
	nc := len(s.candidates)
	s.suffixMin = make([][]float64, nc+1)
	s.suffixMin[nc] = make([]float64, n)
	for j := range s.suffixMin[nc] {
		s.suffixMin[nc][j] = math.Inf(1)
	}
	for k := nc - 1; k >= 0; k-- {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			row[j] = math.Min(s.suffixMin[k+1][j], s.conn[s.candidates[k]][j])
		}
		s.suffixMin[k] = row
	}

	// All-pairs shortest-path distances under the edge costs (for the
	// metric-closure MST Steiner lower bound and the exact Steiner cost),
	// one Dijkstra per source into rows of one flat matrix over arc weights
	// evaluated once, fanned out over the pool with a predecessor row and
	// heap per worker.
	spFlat := make([]float64, n*n)
	s.spDist = make([][]float64, n)
	for v := range s.spDist {
		s.spDist[v] = spFlat[v*n : (v+1)*n : (v+1)*n]
	}
	var arcs graph.Arcs
	arcs.Fill(g, s.edgeCost)
	preds := make([][]int32, pl.Workers())
	heaps := make([]graph.DijkstraScratch, pl.Workers())
	if err := pl.ForEach(ctx, n, func(w, v int) {
		if preds[w] == nil {
			preds[w] = make([]int32, n)
			heaps[w].Grow(n)
		}
		arcs.ShortestPaths(v, s.spDist[v], preds[w], &heaps[w], nil)
	}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *search) run() {
	// Baseline: cache nowhere, everyone fetches from the producer.
	s.evaluate(nil)
	s.dfs(0)
}

// dfs explores subsets of candidates[k:] added to s.cur.
func (s *search) dfs(k int) {
	if s.ctxErr != nil || s.budgetHit || k == len(s.candidates) || len(s.cur) == s.maxSize {
		return
	}
	// Poll for cancellation every 128 explored nodes: cheap enough to keep
	// the search CPU-bound, frequent enough to abort promptly.
	if s.ctx != nil && s.explored&127 == 0 {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
			return
		}
	}
	if s.opts.NodeBudget > 0 && s.explored >= s.opts.NodeBudget {
		s.budgetHit = true
		return
	}
	if s.lowerBound(k) >= s.bestCost-1e-9 {
		return
	}

	// Branch 1: include candidates[k].
	v := s.candidates[k]
	if !math.IsInf(s.fair[v], 1) {
		s.cur = append(s.cur, v)
		s.evaluate(s.cur)
		s.dfs(k + 1)
		s.cur = s.cur[:len(s.cur)-1]
	}
	// Branch 2: exclude candidates[k].
	s.dfs(k + 1)
}

// lowerBound gives an admissible bound for any extension of s.cur with
// nodes from candidates[k:]: fairness can only grow, access is bounded by
// the best conceivable assignment, and the Steiner cost of a superset is
// at least the metric-closure MST of the current terminals halved.
func (s *search) lowerBound(k int) float64 {
	fairness := 0.0
	for _, i := range s.cur {
		fairness += s.fair[i]
	}
	access := 0.0
	for _, j := range s.demands {
		best := s.conn[s.producer][j]
		for _, i := range s.cur {
			if c := s.conn[i][j]; c < best {
				best = c
			}
		}
		if c := s.suffixMin[k][j]; c < best {
			best = c
		}
		access += best
	}
	steinerLB := 0.0
	if len(s.cur) > 0 {
		steinerLB = s.closureMST(s.withProducer(s.cur)) / 2
	}
	return fairness + access + steinerLB
}

// evaluate computes the exact objective of caching set A and updates the
// incumbent.
func (s *search) evaluate(set []int) {
	s.explored++
	fairness := 0.0
	for _, i := range set {
		fairness += s.fair[i]
	}
	access := 0.0
	for _, j := range s.demands {
		best := s.conn[s.producer][j]
		for _, i := range set {
			if c := s.conn[i][j]; c < best {
				best = c
			}
		}
		access += best
	}
	if len(set) == 0 {
		if cost := fairness + access; cost < s.bestCost {
			s.bestCost, s.bestSet = cost, nil
			s.bestFair, s.bestAccess, s.bestSteiner = fairness, access, 0
		}
		return
	}

	terminals := s.withProducer(set)
	// Cheap admissible screen before the exponential exact Steiner.
	if fairness+access+s.closureMST(terminals)/2 >= s.bestCost-1e-9 {
		return
	}
	// One exact Steiner DP can take tens of milliseconds, so the context
	// is checked before every one, not only by dfs's periodic poll.
	if s.ctx != nil {
		if s.ctxErr = s.ctx.Err(); s.ctxErr != nil {
			return
		}
	}
	stCost, err := steiner.ExactCostDist(s.spDist, terminals, &s.dw)
	if err != nil {
		return // oversized terminal set; subset-size cap prevents this
	}
	if cost := fairness + access + stCost; cost < s.bestCost {
		s.bestCost = cost
		s.bestSet = append([]int(nil), set...)
		s.bestFair, s.bestAccess, s.bestSteiner = fairness, access, stCost
	}
}

// withProducer returns the producer followed by set, in the search's
// terminal buffer (valid until the next call).
func (s *search) withProducer(set []int) []int {
	s.terminals = append(append(s.terminals[:0], s.producer), set...)
	return s.terminals
}

// closureMST returns the MST weight of the metric closure of the terminal
// set under shortest-path distances (a 2-approximation upper bound on the
// Steiner optimum, hence /2 is a lower bound).
func (s *search) closureMST(terminals []int) float64 {
	k := len(terminals)
	if k <= 1 {
		return 0
	}
	if len(s.inTree) < k {
		s.inTree = make([]bool, k)
		s.mstDist = make([]float64, k)
	}
	inTree, dist := s.inTree[:k], s.mstDist[:k]
	clear(inTree)
	inTree[0] = true
	for i := 1; i < k; i++ {
		dist[i] = s.spDist[terminals[0]][terminals[i]]
	}
	total := 0.0
	for added := 1; added < k; added++ {
		best := -1
		for i := range dist {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		total += dist[best]
		inTree[best] = true
		for i := range dist {
			if !inTree[i] {
				if d := s.spDist[terminals[best]][terminals[i]]; d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

// Placement is the outcome of the iterative exact solver across chunks.
type Placement struct {
	Producer int
	Chunks   []Solution
	State    *cache.State
}

// CacheNodes returns per-chunk holder sets for the metrics evaluation.
func (p *Placement) CacheNodes() [][]int {
	out := make([][]int, len(p.Chunks))
	for i, c := range p.Chunks {
		out[i] = append([]int(nil), c.Facilities...)
	}
	return out
}

// Objective returns the summed per-chunk objective values.
func (p *Placement) Objective() float64 {
	total := 0.0
	for i := range p.Chunks {
		total += p.Chunks[i].Total()
	}
	return total
}

// Optimal reports whether every chunk's search completed exhaustively.
func (p *Placement) Optimal() bool {
	for i := range p.Chunks {
		if !p.Chunks[i].Optimal {
			return false
		}
	}
	return true
}

// PlaceChunksCtx runs the iterative exact solver on the cost model m: for
// each chunk the optimal ConFL solution under the current state is
// computed and committed through m, just like the paper's brute-force
// baseline solves Eq. (8) chunk by chunk, so each chunk after the first
// pays one matrix sweep over the model's memoised BFS layers for the
// previous commits. Cancellation is checked before and during every
// per-chunk search.
func PlaceChunksCtx(ctx context.Context, m *costmodel.Model, producer, chunks int, opts Options, pl *pool.Pool) (*Placement, error) {
	if producer < 0 || producer >= m.Graph().NumNodes() {
		return nil, fmt.Errorf("%w: producer %d", ErrBadInput, producer)
	}
	if chunks <= 0 {
		return nil, fmt.Errorf("%w: chunks %d", ErrBadInput, chunks)
	}
	p := &Placement{Producer: producer, State: m.State()}
	for n := 0; n < chunks; n++ {
		sol, err := solveChunkModel(ctx, m, producer, opts, pl)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", n, err)
		}
		for _, i := range sol.Facilities {
			if err := m.Commit(i, n); err != nil {
				return nil, fmt.Errorf("chunk %d store on %d: %w", n, i, err)
			}
		}
		p.Chunks = append(p.Chunks, *sol)
	}
	return p, nil
}
