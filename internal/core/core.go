// Package core implements the paper's primary contribution: the fair
// caching approximation algorithm (Algorithm 1). Chunks are placed one at a
// time; before each chunk the Fairness Degree Costs (Eq. 1) and the Path
// Contention Costs (Eq. 2) are refreshed from the current cache state, a
// ConFL primal-dual phase selects the caching (ADMIN) set, and a Steiner
// tree connects it to the producer for dissemination. Because placements
// raise both the fairness cost and the relay contention of loaded nodes,
// subsequent chunks avoid them — this feedback is what makes the caching
// load fair.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/confl"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/steiner"
	"repro/internal/trace"
)

// Strategy selects the per-chunk ConFL solver.
type Strategy int

const (
	// PrimalDual is the paper's dual-growth algorithm with the 6.55
	// approximation guarantee (the default).
	PrimalDual Strategy = iota
	// Greedy is the guarantee-free greedy heuristic (related work [23]),
	// kept as an ablation point.
	Greedy
)

// Options configures the approximation algorithm.
type Options struct {
	// ConFL tunes the per-chunk primal-dual phase.
	ConFL confl.Options
	// Strategy selects the per-chunk solver (default PrimalDual).
	Strategy Strategy
	// ImproveSteiner applies key-path local search to each dissemination
	// tree after the MST 2-approximation (toward the stronger ratios the
	// paper cites for phase 2).
	ImproveSteiner bool
	// FairnessWeight scales the Fairness Degree Cost term against the
	// contention terms. The paper's formulation uses equal weights (1,
	// the DefaultOptions value); 0 disables the fairness term entirely,
	// which the ablation benchmarks use to isolate the contention terms.
	FairnessWeight float64
	// BatteryWeight scales the battery Fairness Degree Cost (the
	// weighted-summation extension of the paper's footnote 1); 0 (the
	// default) ignores battery levels.
	BatteryWeight float64
	// Workers sizes the worker pool the engine fans independent inner work
	// out over (contention matrix rows, per-demand and per-candidate tick
	// phases, per-terminal Dijkstra). 0 uses GOMAXPROCS; 1 or less runs the
	// sequential reference path. Results are byte-identical at any width.
	Workers int
	// ChunkStarted, when non-nil, is invoked at the start of each per-chunk
	// iteration with the chunk id, before any work for that chunk runs. It
	// exists so callers (and cancellation tests) can observe solve progress.
	ChunkStarted func(chunk int)
	// PathCache, when non-nil, supplies a shared shortest-path memo for the
	// solver's topology (it MUST have been built over the same graph).
	// Callers that create many Solvers on one topology — the placement
	// service does, one per request — pass a shared cache so the BFS layer
	// structure is computed once. nil creates a private cache.
	PathCache *graph.PathCache
	// Scratch, when non-nil, supplies the arena pool the solve borrows its
	// per-chunk scratch buffers from (ConFL dual-growth state, Steiner path
	// rows, staging slices). The root solver passes its own long-lived pool
	// so arenas recycle across requests; nil falls back to a process-wide
	// default pool. Either way a steady-state chunk placement performs
	// near-zero heap allocations.
	Scratch *ScratchPool
	// Parent is the trace span per-chunk placement spans attach under
	// (cost refresh, ConFL dual growth, Steiner connect/improve). The
	// zero Span disables tracing at zero cost.
	Parent trace.Span
}

// DefaultOptions returns the configuration used in the paper's evaluation.
func DefaultOptions() Options {
	return Options{
		ConFL:          confl.DefaultOptions(),
		FairnessWeight: 1,
	}
}

// ChunkResult records the decisions and decision-time costs for one chunk.
type ChunkResult struct {
	// Chunk is the chunk id.
	Chunk int
	// CacheNodes is L(n): the nodes selected to cache the chunk (the
	// ADMIN set), sorted; it never contains the producer.
	CacheNodes []int
	// Assign maps every node to the node it obtains the chunk from under
	// the solver's dual-growth assignment.
	Assign []int
	// Tree is the dissemination Steiner tree over CacheNodes ∪ producer.
	Tree steiner.Tree
	// Fairness, Access and Dissemination are the decision-time cost terms
	// of objective (8) for this chunk.
	Fairness      float64
	Access        float64
	Dissemination float64
	// Iterations is the dual-growth tick count (the paper's C).
	Iterations int
}

// Total returns the chunk's decision-time objective value.
func (c ChunkResult) Total() float64 {
	return c.Fairness + c.Access + c.Dissemination
}

// Placement is the outcome of placing all chunks.
type Placement struct {
	// Producer is the data producer node.
	Producer int
	// Chunks holds one result per chunk, in placement order.
	Chunks []ChunkResult
	// State is the final cache state after all placements.
	State *cache.State
}

// CacheNodes returns the per-chunk caching sets (the holders of each
// chunk), for handing to the uniform evaluation in package metrics.
func (p *Placement) CacheNodes() [][]int {
	out := make([][]int, len(p.Chunks))
	for i, c := range p.Chunks {
		out[i] = append([]int(nil), c.CacheNodes...)
	}
	return out
}

// Objective returns the summed decision-time objective across chunks.
func (p *Placement) Objective() float64 {
	total := 0.0
	for _, c := range p.Chunks {
		total += c.Total()
	}
	return total
}

// Solver runs the fair caching approximation algorithm on one topology.
// It memoises the topology-dependent shortest-path structure (BFS layers
// per source), so repeated solves on the same topology — per-chunk
// iterations, online publications, server requests — skip that work. A
// Solver is safe for concurrent use.
type Solver struct {
	g    *graph.Graph
	opts Options
	pc   *graph.PathCache
}

// Errors returned by the solver.
var (
	ErrBadTopology = errors.New("core: topology must be connected with at least 2 nodes")
	ErrBadProducer = errors.New("core: producer out of range")
	ErrBadChunks   = errors.New("core: chunk count must be positive")
	ErrBadState    = errors.New("core: cache state size mismatch")
)

// New returns a Solver for the given connected topology.
func New(g *graph.Graph, opts Options) (*Solver, error) {
	if g == nil || g.NumNodes() < 2 || !g.Connected() {
		return nil, ErrBadTopology
	}
	if opts.FairnessWeight < 0 {
		return nil, fmt.Errorf("core: fairness weight %g must be >= 0", opts.FairnessWeight)
	}
	if opts.BatteryWeight < 0 {
		return nil, fmt.Errorf("core: battery weight %g must be >= 0", opts.BatteryWeight)
	}
	pc := opts.PathCache
	if pc == nil {
		pc = graph.NewPathCache(g)
	}
	return &Solver{g: g, opts: opts, pc: pc}, nil
}

// PathCache returns the solver's shared shortest-path memo, so callers
// building caller-owned cost models (warm solves, region solves) reuse the
// BFS layer structure instead of recomputing it.
func (s *Solver) PathCache() *graph.PathCache { return s.pc }

// Reconfigure returns a Solver over the same topology and path cache with
// different options. The graph was validated when this solver was built,
// so the O(N+E) connectivity check is skipped — the hook the sharded solve
// path uses to derive per-request region solvers from a plan's canonical
// ones. Options.PathCache is ignored; the receiver's cache is kept.
func (s *Solver) Reconfigure(opts Options) (*Solver, error) {
	if opts.FairnessWeight < 0 {
		return nil, fmt.Errorf("core: fairness weight %g must be >= 0", opts.FairnessWeight)
	}
	if opts.BatteryWeight < 0 {
		return nil, fmt.Errorf("core: battery weight %g must be >= 0", opts.BatteryWeight)
	}
	opts.PathCache = s.pc
	return &Solver{g: s.g, opts: opts, pc: s.pc}, nil
}

// Place runs Algorithm 1: it places chunk ids 0..chunks-1 sequentially,
// mutating st (which must cover the same node set as the topology).
func (s *Solver) Place(producer, chunks int, st *cache.State) (*Placement, error) {
	return s.PlaceCtx(context.Background(), producer, chunks, st)
}

// PlaceCtx is Place with cancellation and parallel inner work: ctx is
// checked before every chunk and throughout each per-chunk iteration
// (contention matrix build, dual-growth ticks, Steiner fan-out), and the
// independent inner loops spread over Options.Workers. Cancellation
// surfaces as an error satisfying errors.Is with ctx.Err(); st may have
// been mutated by already-committed chunks.
func (s *Solver) PlaceCtx(ctx context.Context, producer, chunks int, st *cache.State) (*Placement, error) {
	if producer < 0 || producer >= s.g.NumNodes() {
		return nil, fmt.Errorf("%w: %d", ErrBadProducer, producer)
	}
	if chunks <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadChunks, chunks)
	}
	if st == nil || st.NumNodes() != s.g.NumNodes() {
		return nil, ErrBadState
	}
	m, err := costmodel.New(s.g, s.pc, st, s.modelOptions())
	if err != nil {
		return nil, ErrBadState
	}
	return s.PlaceModelCtx(ctx, producer, chunks, m)
}

// PlaceModelCtx is PlaceCtx against a caller-owned cost model, the hook
// for warm solves: the placement service forks a pre-built topology model
// instead of paying the cold matrix build, and the online system keeps one
// model alive across publications. The model must be bound to this
// solver's graph and carry the same fairness/battery weights; the cache
// state placed into is the model's own.
func (s *Solver) PlaceModelCtx(ctx context.Context, producer, chunks int, m *costmodel.Model) (*Placement, error) {
	if producer < 0 || producer >= s.g.NumNodes() {
		return nil, fmt.Errorf("%w: %d", ErrBadProducer, producer)
	}
	if chunks <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadChunks, chunks)
	}
	if err := s.checkModel(m); err != nil {
		return nil, err
	}

	pl := pool.New(s.effectiveWorkers())
	defer pl.Close()
	scr := s.opts.Scratch.get()
	defer s.opts.Scratch.put(scr)

	placement := &Placement{
		Producer: producer,
		State:    m.State(),
	}
	for n := 0; n < chunks; n++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", n, err)
		}
		res, err := s.placeChunk(ctx, producer, n, m, pl, scr)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", n, err)
		}
		placement.Chunks = append(placement.Chunks, *res)
	}
	return placement, nil
}

// modelOptions maps the solver's options onto the cost model's.
func (s *Solver) modelOptions() costmodel.Options {
	return costmodel.Options{
		FairnessWeight: s.opts.FairnessWeight,
		BatteryWeight:  s.opts.BatteryWeight,
	}
}

// checkModel rejects models bound to another topology or weighted
// differently than this solver — either would silently change placements.
func (s *Solver) checkModel(m *costmodel.Model) error {
	if m == nil || m.Graph() != s.g || m.State() == nil || m.State().NumNodes() != s.g.NumNodes() {
		return ErrBadState
	}
	if mo := m.Options(); mo.FairnessWeight != s.opts.FairnessWeight || mo.BatteryWeight != s.opts.BatteryWeight {
		return fmt.Errorf("%w: model weights (%g, %g) differ from solver options (%g, %g)",
			ErrBadState, mo.FairnessWeight, mo.BatteryWeight, s.opts.FairnessWeight, s.opts.BatteryWeight)
	}
	return nil
}

// PlaceOneModelCtx runs a single iteration of Algorithm 1 for an arbitrary
// chunk id against a caller-owned cost model (see PlaceModelCtx) and
// commits the chosen caching set through it. It is the per-chunk entry
// point for chunks that arrive over time rather than as a batch: the
// online system keeps one model alive across publications and TTL
// evictions, and the adaptive engine re-places lost chunks on its warm
// fork, so each call pays only the delta repair instead of a full cost
// rebuild. The context is checked throughout the iteration.
func (s *Solver) PlaceOneModelCtx(ctx context.Context, producer, chunkID int, m *costmodel.Model) (*ChunkResult, error) {
	if producer < 0 || producer >= s.g.NumNodes() {
		return nil, fmt.Errorf("%w: %d", ErrBadProducer, producer)
	}
	if err := s.checkModel(m); err != nil {
		return nil, err
	}
	pl := pool.New(s.effectiveWorkers())
	defer pl.Close()
	scr := s.opts.Scratch.get()
	defer s.opts.Scratch.put(scr)
	return s.placeChunk(ctx, producer, chunkID, m, pl, scr)
}

// effectiveWorkers maps Options.Workers onto a pool width: 0 means
// GOMAXPROCS, anything below 1 means the sequential path.
func (s *Solver) effectiveWorkers() int { return pool.Normalize(s.opts.Workers) }

// placeChunk runs one iteration of Algorithm 1 for chunk n, borrowing
// every transient buffer from scr so a steady-state iteration allocates
// only its ChunkResult.
func (s *Solver) placeChunk(ctx context.Context, producer, n int, m *costmodel.Model, pl *pool.Pool, scr *SolveScratch) (*ChunkResult, error) {
	if hook := s.opts.ChunkStarted; hook != nil {
		hook(n)
	}
	csp := s.opts.Parent.Child("chunk")
	csp.SetInt("chunk", int64(n))
	defer csp.End()

	// Lines 5-16: refresh fairness and contention costs from the state.
	// The model repairs only the entries the previous chunk's commits
	// dirtied; the first call on a cold model pays the one full build.
	rsp := csp.Child("costmodel.refresh")
	var st0 costmodel.Stats
	if rsp.Live() {
		st0 = m.Stats()
	}
	scr.fc = m.FacilityCostsInto(producer, scr.fc)
	fc := scr.fc
	costs, err := m.CostsCtx(ctx, pl)
	if err != nil {
		return nil, err
	}
	if rsp.Live() {
		st1 := m.Stats()
		rsp.SetInt("fullBuilds", int64(st1.FullBuilds-st0.FullBuilds))
		rsp.SetInt("repairs", int64(st1.Repairs-st0.Repairs))
		rsp.SetInt("cellsRepaired", int64(st1.CellsRecomputed-st0.CellsRecomputed))
	}
	rsp.End()

	// Phase 1 (lines 17-46): per-chunk ConFL. The instance borrows the
	// model's flat cost views read-only for the duration of the solve.
	inst := confl.Instance{
		N:            s.g.NumNodes(),
		Producer:     producer,
		FacilityCost: fc,
		ConnCost:     costs.C,
	}
	copts := s.opts.ConFL
	copts.Pool = pl
	fsp := csp.Child("confl")
	var sol *confl.Solution
	if s.opts.Strategy == Greedy {
		sol, err = confl.SolveGreedyCtx(ctx, inst, copts)
	} else {
		sol, err = confl.SolveScratchCtx(ctx, inst, copts, &scr.confl)
	}
	if err != nil {
		return nil, err
	}
	if fsp.Live() {
		fsp.SetInt("ticks", int64(sol.Iterations))
		fsp.SetInt("admitted", int64(len(sol.Facilities)))
		frozen := 0
		for j, to := range sol.Assign {
			if j != producer && to != j {
				frozen++
			}
		}
		fsp.SetInt("frozenRemote", int64(frozen))
	}
	fsp.End()

	res := &ChunkResult{
		Chunk:      n,
		CacheNodes: sol.Facilities,
		Assign:     sol.Assign,
		Iterations: sol.Iterations,
	}

	// Decision-time cost terms of objective (8), before committing.
	for _, i := range sol.Facilities {
		res.Fairness += fc[i]
	}
	for j := 0; j < s.g.NumNodes(); j++ {
		if j != producer {
			res.Access += costs.At(sol.Assign[j], j)
		}
	}

	// Phase 2 (line 47): Steiner tree connecting ADMIN set and producer.
	if len(sol.Facilities) > 0 {
		scr.terminals = append(append(scr.terminals[:0], sol.Facilities...), producer)
		terminals := scr.terminals
		edgeCost := m.EdgeCostFunc()
		ssp := csp.Child("steiner.connect")
		tree, err := steiner.MSTApproxScratchCtx(ctx, s.g, edgeCost, terminals, pl, &scr.steiner)
		if err != nil {
			return nil, err
		}
		ssp.SetInt("terminals", int64(len(terminals)))
		ssp.SetInt("edges", int64(len(tree.Edges)))
		ssp.End()
		if s.opts.ImproveSteiner {
			isp := csp.Child("steiner.improve")
			before := len(tree.Edges)
			tree = steiner.ImproveScratch(s.g, edgeCost, tree, terminals, &scr.steiner)
			isp.SetInt("edgesBefore", int64(before))
			isp.SetInt("edges", int64(len(tree.Edges)))
			isp.End()
		}
		res.Tree = tree
		res.Dissemination = tree.Cost
	}

	// Commit: L(n) ← A (line 48) — through the model, so the next chunk's
	// refresh is a delta repair, not a rebuild.
	for _, i := range sol.Facilities {
		if err := m.Commit(i, n); err != nil {
			return nil, fmt.Errorf("store on node %d: %w", i, err)
		}
	}
	return res, nil
}
