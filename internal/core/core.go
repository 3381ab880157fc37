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

// Options configures the approximation algorithm. The topology, its path
// cache, the cache state and the fairness/battery weights are not options:
// they belong to the cost model a solve runs on.
type Options struct {
	// ConFL tunes the per-chunk primal-dual phase.
	ConFL confl.Options
	// Strategy selects the per-chunk solver (default PrimalDual).
	Strategy Strategy
	// ImproveSteiner applies key-path local search to each dissemination
	// tree after the MST 2-approximation (toward the stronger ratios the
	// paper cites for phase 2). It changes each chunk's Tree and
	// Dissemination, never its holders.
	ImproveSteiner bool
	// ChunkStarted, when non-nil, is invoked at the start of each per-chunk
	// iteration with the chunk id, before any work for that chunk runs. It
	// exists so callers (and cancellation tests) can observe solve progress.
	ChunkStarted func(chunk int)
	// Parent is the trace span per-chunk placement spans attach under
	// (cost refresh, ConFL dual growth, Steiner connect/improve). The
	// zero Span disables tracing at zero cost.
	Parent trace.Span
}

// DefaultOptions returns the configuration used in the paper's evaluation.
func DefaultOptions() Options {
	return Options{ConFL: confl.DefaultOptions()}
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

// Errors returned by the placement functions.
var (
	ErrBadProducer = errors.New("core: producer out of range")
	ErrBadChunks   = errors.New("core: chunk count must be positive")
)

// PlaceCtx runs Algorithm 1 on the cost model m: it places chunk ids
// 0..chunks-1 sequentially, committing each caching set through m, so the
// cache state placed into is the model's own and every chunk after the
// first pays one matrix sweep over the memoised BFS layers. A warm solve
// passes a fork of a pre-built topology model. ctx is checked before every
// chunk and throughout each per-chunk iteration (contention matrix build,
// dual-growth ticks, each terminal joining the Steiner closure tree), and
// the independent inner loops spread over pl (nil runs the sequential
// path; results are byte-identical at any width). Cancellation surfaces
// as an error satisfying errors.Is with ctx.Err(); the model may hold
// already-committed chunks.
func PlaceCtx(ctx context.Context, m *costmodel.Model, producer, chunks int, opts Options, pl *pool.Pool) (*Placement, error) {
	if err := checkProducer(m, producer); err != nil {
		return nil, err
	}
	if chunks <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadChunks, chunks)
	}
	scr := getScratch()
	defer putScratch(scr)

	placement := &Placement{
		Producer: producer,
		State:    m.State(),
	}
	for n := 0; n < chunks; n++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("chunk %d: %w", n, err)
		}
		res, err := placeChunk(ctx, m, producer, n, &opts, pl, scr)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", n, err)
		}
		placement.Chunks = append(placement.Chunks, *res)
	}
	return placement, nil
}

// PlaceOneCtx runs a single iteration of Algorithm 1 for an arbitrary
// chunk id on the cost model m and commits the chosen caching set through
// it. It is the per-chunk entry point for chunks that arrive over time
// rather than as a batch: the online system keeps one model alive across
// publications and TTL evictions, and the adaptive engine re-places lost
// chunks on its warm fork, so each call pays one matrix sweep instead of a
// cold model build. The context is checked throughout the iteration.
func PlaceOneCtx(ctx context.Context, m *costmodel.Model, producer, chunkID int, opts Options, pl *pool.Pool) (*ChunkResult, error) {
	if err := checkProducer(m, producer); err != nil {
		return nil, err
	}
	scr := getScratch()
	defer putScratch(scr)
	return placeChunk(ctx, m, producer, chunkID, &opts, pl, scr)
}

func checkProducer(m *costmodel.Model, producer int) error {
	if producer < 0 || producer >= m.Graph().NumNodes() {
		return fmt.Errorf("%w: %d", ErrBadProducer, producer)
	}
	return nil
}

// placeChunk runs one iteration of Algorithm 1 for chunk n, borrowing
// every transient buffer from scr so a steady-state iteration allocates
// only its ChunkResult.
func placeChunk(ctx context.Context, m *costmodel.Model, producer, n int, opts *Options, pl *pool.Pool, scr *SolveScratch) (*ChunkResult, error) {
	if hook := opts.ChunkStarted; hook != nil {
		hook(n)
	}
	g := m.Graph()
	csp := opts.Parent.Child("chunk")
	csp.SetInt("chunk", int64(n))
	defer csp.End()

	// Lines 5-16: refresh fairness and contention costs from the state.
	// The model sweeps its matrix once when the previous chunk's commits
	// moved a weight, over the path cache's memoised BFS layers.
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
		rsp.SetInt("sweeps", int64(st1.Sweeps-st0.Sweeps))
		rsp.SetInt("cells", int64(st1.CellsRecomputed-st0.CellsRecomputed))
	}
	rsp.End()

	// Phase 1 (lines 17-46): per-chunk ConFL. The instance borrows the
	// model's flat cost views read-only for the duration of the solve.
	inst := confl.Instance{
		N:            g.NumNodes(),
		Producer:     producer,
		FacilityCost: fc,
		ConnCost:     costs.C,
	}
	copts := opts.ConFL
	copts.Pool = pl
	fsp := csp.Child("confl")
	var sol *confl.Solution
	if opts.Strategy == Greedy {
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
	for j := 0; j < g.NumNodes(); j++ {
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
		tree, err := steiner.MSTApproxScratchCtx(ctx, g, edgeCost, terminals, pl, &scr.steiner)
		if err != nil {
			return nil, err
		}
		ssp.SetInt("terminals", int64(len(terminals)))
		ssp.SetInt("edges", int64(len(tree.Edges)))
		ssp.End()
		if opts.ImproveSteiner {
			isp := csp.Child("steiner.improve")
			before := len(tree.Edges)
			tree = steiner.ImproveScratch(g, edgeCost, tree, terminals, &scr.steiner)
			isp.SetInt("edgesBefore", int64(before))
			isp.SetInt("edges", int64(len(tree.Edges)))
			isp.End()
		}
		res.Tree = tree
		res.Dissemination = tree.Cost
	}

	// Commit: L(n) ← A (line 48) — through the model, so the next chunk's
	// refresh sees the moved weights.
	for _, i := range sol.Facilities {
		if err := m.Commit(i, n); err != nil {
			return nil, fmt.Errorf("store on node %d: %w", i, err)
		}
	}
	return res, nil
}
