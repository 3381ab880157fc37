package faircache

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/demand"
	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Request describes one placement solve: which node produces the data, how
// many chunks to place, which of the paper's algorithms to run and any
// option overrides. The zero Algorithm selects AlgorithmApprox and a nil
// Options means "paper defaults", so the minimal request is
// Request{Producer: p, Chunks: q}.
type Request struct {
	// Producer is the data producer node (never caches).
	Producer int
	// Chunks is the number of chunks to place (ids 0..Chunks-1). Chunks
	// times the node count may not exceed the engines' budget of 1<<22
	// (chunk, node) cells.
	Chunks int
	// Algorithm selects the placement algorithm; "" means AlgorithmApprox.
	Algorithm Algorithm
	// Options overrides the paper defaults; nil keeps them all.
	Options *Options
}

// Solver is the context-first entry point of the library: it binds a
// topology once and then answers placement requests for any algorithm,
// producer and option set via Solve. Construction is cheap; the solver
// additionally keeps a fully built topology cost model alive (with the
// topology's memoised shortest-path structure), so a long-lived Solver (a
// placement service holds one per topology) answers repeat requests from a
// warm start: the approximation and the exact solver fork the base
// model's matrices instead of paying the cold all-pairs rebuild, and the
// baselines read its topology metric directly. A Solver is safe for
// concurrent use.
type Solver struct {
	topo *Topology

	mu    sync.Mutex
	base  *costmodel.Model // empty-state topology model; read-only once built
	stats SolverStats

	// planMu guards plans, the memoised partition plans of the sharded
	// solve path, keyed by requested region count.
	planMu sync.Mutex
	plans  map[int]*partitionPlan
}

// SolverStats counts how solves obtained their cost matrices, not how
// many solves ran: a Dist solve obtains none and counts in no field, and
// a partitioned solve counts in PartitionedSolves and also in ColdBuilds
// or WarmSolves, by whether it built its plan's region models. The
// daemon counts engine runs in faircached_solve_duration_seconds_count.
type SolverStats struct {
	// ColdBuilds counts solves that had to build cost matrices from
	// scratch: at most one per topology lifetime for the approximation,
	// exact and baseline paths, which share one base model, and one per
	// partition plan for partitioned solves.
	ColdBuilds int `json:"coldBuilds"`
	// WarmSolves counts solves served from matrices built earlier: the
	// base model (a fork for the approximation and the exact solver, a
	// read-only borrow for the baselines) or a plan's region models.
	WarmSolves int `json:"warmSolves"`
	// PartitionedSolves counts solves served by the sharded
	// (partition-and-stitch) engine, each also counted in ColdBuilds or
	// WarmSolves.
	PartitionedSolves int `json:"partitionedSolves"`
	// PartitionPlans counts distinct partition plans built — one per
	// requested region count, each holding its regions' subtopologies,
	// path caches and base cost models across solves.
	PartitionPlans int `json:"partitionPlans"`
}

// NewSolver returns a Solver bound to the given topology. Disconnected
// topologies are rejected up front with ErrNotConnected (an
// ErrBadArgument): unreachable nodes would silently never be assigned a
// nearby copy, and the partitioner could not cover them at all.
func NewSolver(t *Topology) (*Solver, error) {
	if err := checkTopology(t); err != nil {
		return nil, err
	}
	return &Solver{topo: t}, nil
}

// checkTopology rejects a nil topology with ErrBadArgument and a
// disconnected one with ErrNotConnected.
func checkTopology(t *Topology) error {
	if t == nil || t.g == nil {
		return fmt.Errorf("%w: nil topology", ErrBadArgument)
	}
	if !t.g.Connected() {
		return ErrNotConnected
	}
	return nil
}

// Topology returns the topology the solver is bound to.
func (s *Solver) Topology() *Topology { return s.topo }

// Stats returns the solver's warm/cold solve counters.
func (s *Solver) Stats() SolverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// baseModel returns the solver's shared empty-state cost model, building
// (and fully refreshing) it on first use. After that single build the
// model is never mutated again, so concurrent solves may read it freely.
func (s *Solver) baseModel(ctx context.Context, pl *pool.Pool, sp *trace.Span) (*costmodel.Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.base != nil {
		s.stats.WarmSolves++
		return s.base, nil
	}
	bsp := sp.Child("costmodel.build")
	m, err := s.newBaseModel(ctx, pl)
	if err != nil {
		return nil, err
	}
	bsp.SetInt("cold", 1)
	bsp.SetInt("cells", int64(m.MatrixCells()))
	bsp.End()
	s.base = m
	s.stats.ColdBuilds++
	return m, nil
}

// newBaseModel builds a fully refreshed empty-state model of the topology.
// Weights of an empty state depend only on node degrees, so one base model
// serves every capacity/battery/weight configuration: forks re-derive the
// cheap fairness vector from their own state and options, only the O(N²)
// matrices are shared.
func (s *Solver) newBaseModel(ctx context.Context, pl *pool.Pool) (*costmodel.Model, error) {
	st := cache.NewState(s.topo.g.NumNodes(), 1)
	m, err := costmodel.New(s.topo.g, nil, st, costmodel.Options{FairnessWeight: 1})
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	if err := m.RefreshCtx(ctx, pl); err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	return m, nil
}

// evalBase returns the empty-state model a result's evaluation forks: the
// solver's base model once a global solve has built it, otherwise a
// transient one the caller drops, so a solver that has run only
// partitioned or distributed solves keeps no O(N²) model for evaluations.
// Unlike baseModel it counts no solve: an evaluation is not one.
func (s *Solver) evalBase(ctx context.Context) (*costmodel.Model, error) {
	s.mu.Lock()
	bm := s.base
	s.mu.Unlock()
	if bm != nil {
		return bm, nil
	}
	return s.newBaseModel(ctx, nil)
}

// Solve runs one placement request. The context governs the whole solve:
// cancellation or deadline expiry stops the engine mid-solve (between
// chunks and inside each chunk's dual-growth, search and tree phases) and
// surfaces as an error satisfying errors.Is with ctx.Err(). Invalid
// requests fail with an error satisfying errors.Is(err, ErrBadArgument).
// Independent inner work fans out over a pool of GOMAXPROCS workers; the
// result is byte-identical at any width. The solve's spans record into
// the trace the context carries, if any (the daemon's); an Explain solve
// whose context carries none keeps its spans for its report only.
func (s *Solver) Solve(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	alg := req.Algorithm
	if alg == "" {
		alg = AlgorithmApprox
	}
	if n := s.topo.NumNodes(); req.Producer < 0 || req.Producer >= n {
		return nil, fmt.Errorf("%w: producer %d out of range [0,%d)", ErrBadArgument, req.Producer, n)
	}
	if req.Chunks <= 0 {
		return nil, fmt.Errorf("%w: chunk count %d must be positive", ErrBadArgument, req.Chunks)
	}
	// The engines allocate per (chunk, node) before their first context
	// check, so the count is capped by the adaptive engine's cell budget.
	if n := s.topo.NumNodes(); req.Chunks > demand.MaxCells/n {
		return nil, fmt.Errorf("%w: %d chunks on %d nodes exceeds the limit of %d (chunk, node) cells", ErrBadArgument, req.Chunks, n, demand.MaxCells)
	}
	o := req.Options.withDefaults()
	tr := trace.FromContext(ctx)
	if tr == nil && o.Explain {
		tr = trace.Collect()
	}
	sp := tr.Start("solve")
	sp.SetInt("chunks", int64(req.Chunks))
	sp.SetInt("producer", int64(req.Producer))
	res, err := s.dispatch(ctx, req, o, alg, &sp)
	sp.End()
	if err != nil {
		return nil, err
	}
	if o.Explain {
		res.Trace = buildExplain(tr, "solve")
	}
	return res, nil
}

// dispatch routes a validated request to its algorithm's solve path,
// with sp — the request's root trace span — as the parent the pipeline's
// phase spans attach under (a dead span when tracing is off).
func (s *Solver) dispatch(ctx context.Context, req Request, o Options, alg Algorithm, sp *trace.Span) (*Result, error) {
	if o.Partition != nil {
		if alg != AlgorithmApprox {
			return nil, fmt.Errorf("%w: partitioned solves support only AlgorithmApprox, got %q", ErrBadArgument, string(alg))
		}
		return s.solvePartitioned(ctx, req, o, sp)
	}
	switch alg {
	case AlgorithmApprox:
		return s.solveApprox(ctx, req, o, sp)
	case AlgorithmDistributed:
		return s.solveDistributed(ctx, req, o, sp)
	case AlgorithmHopCount:
		return s.solveBaseline(ctx, req, o, baseline.HopCount, AlgorithmHopCount, metrics.AccessHopNearest, sp)
	case AlgorithmContention:
		return s.solveBaseline(ctx, req, o, baseline.Contention, AlgorithmContention, metrics.AccessTopologyNearest, sp)
	case AlgorithmOptimal:
		return s.solveOptimal(ctx, req, o, sp)
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrBadArgument, string(alg))
	}
}

// coreOptions maps public approximation options onto the engine's; the
// weights go to the cost model instead (see modelOptions). ImproveSteiner
// is not forwarded: only a partitioned solve reads an improved tree, and
// it sets the engine option itself.
func coreOptions(o Options) core.Options {
	coreOpts := core.DefaultOptions()
	if o.GreedyConFL {
		coreOpts.Strategy = core.Greedy
	}
	if o.AlphaStep > 0 {
		coreOpts.ConFL.AlphaStep = o.AlphaStep
	}
	if o.GammaStep > 0 {
		coreOpts.ConFL.GammaStep = o.GammaStep
	}
	if o.SpanQuorum > 0 {
		coreOpts.ConFL.SpanQuorum = o.SpanQuorum
	}
	coreOpts.ChunkStarted = o.ChunkStarted
	return coreOpts
}

// modelOptions maps public options onto the cost model's weights.
func modelOptions(o Options) costmodel.Options {
	return costmodel.Options{FairnessWeight: o.FairnessWeight, BatteryWeight: o.BatteryWeight}
}

// forkBase forks the solver's warm topology model over st for one solve:
// fresh states are empty, so the fork reuses the shared contention
// matrices and the cold all-pairs build is paid once per topology, not per
// solve.
func (s *Solver) forkBase(ctx context.Context, pl *pool.Pool, st *cache.State, mo costmodel.Options, sp *trace.Span) (*costmodel.Model, error) {
	bm, err := s.baseModel(ctx, pl, sp)
	if err != nil {
		return nil, err
	}
	fsp := sp.Child("costmodel.fork")
	var fst0 costmodel.Stats
	if fsp.Live() {
		fst0 = bm.Stats()
	}
	m, err := bm.ForkCtx(ctx, pl, st, mo)
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	if fsp.Live() {
		fst1 := bm.Stats()
		fsp.SetInt("warm", int64(fst1.WarmForks-fst0.WarmForks))
		fsp.SetInt("cold", int64(fst1.ColdForks-fst0.ColdForks))
	}
	fsp.End()
	return m, nil
}

// solveApprox runs the paper's centralized approximation (Algorithm 1).
func (s *Solver) solveApprox(ctx context.Context, req Request, o Options, sp *trace.Span) (*Result, error) {
	st := newState(s.topo, nil, o)
	base := st.Clone()
	pl := pool.New(0)
	defer pl.Close()
	m, err := s.forkBase(ctx, pl, st, modelOptions(o), sp)
	if err != nil {
		return nil, err
	}
	coreOpts := coreOptions(o)
	coreOpts.Parent = *sp
	p, err := core.PlaceCtx(ctx, m, req.Producer, req.Chunks, coreOpts, pl)
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	res := newResult(s, AlgorithmApprox, req.Producer, req.Chunks, o.Capacity, p.CacheNodes(), st, base, metrics.AccessCostNearest)
	// Each chunk's tree is the one the evaluation replay would build: the
	// same steiner.MSTApproxScratchCtx under the same edge costs w_u + w_v,
	// at the same state before the chunk, over the same terminals.
	res.trees = make([]solvedTree, len(p.Chunks))
	for n, c := range p.Chunks {
		res.trees[n] = solvedTree{holders: c.CacheNodes, cost: c.Dissemination}
	}
	return res, nil
}

// solveDistributed runs the distributed protocol (Algorithm 2) on the
// deterministic message-round simulator.
func (s *Solver) solveDistributed(ctx context.Context, req Request, o Options, sp *trace.Span) (*Result, error) {
	distOpts := dist.DefaultOptions()
	distOpts.K = o.HopLimit
	distOpts.FairnessWeight = o.FairnessWeight
	distOpts.BatteryWeight = o.BatteryWeight
	if o.AlphaStep > 0 {
		distOpts.AlphaStep = o.AlphaStep
	}
	if o.GammaStep > 0 {
		distOpts.GammaStep = o.GammaStep
	}
	if o.SpanQuorum > 0 {
		distOpts.SpanQuorum = o.SpanQuorum
	}
	protocol, err := dist.New(s.topo.g, distOpts)
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	st := newState(s.topo, nil, o)
	base := st.Clone()
	psp := sp.Child("dist.place")
	p, err := protocol.PlaceChunksCtx(ctx, req.Producer, req.Chunks, st)
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	psp.End()
	res := newResult(s, AlgorithmDistributed, req.Producer, req.Chunks, o.Capacity, p.CacheNodes(), st, base, metrics.AccessCostNearest)
	res.Messages = p.MessagesByKind()
	return res, nil
}

// solveBaseline runs one of the two greedy comparison algorithms with the
// paper's multi-item extension.
func (s *Solver) solveBaseline(ctx context.Context, req Request, o Options, alg baseline.Algorithm, name Algorithm, strategy metrics.AccessStrategy, sp *trace.Span) (*Result, error) {
	lambda := o.Lambda
	if lambda <= 0 {
		lambda = baseline.RecommendedLambda(alg, s.topo.NumNodes())
	}
	st := newState(s.topo, nil, o)
	base := st.Clone()
	pl := pool.New(0)
	defer pl.Close()
	bm, err := s.baseModel(ctx, pl, sp)
	if err != nil {
		return nil, err
	}
	psp := sp.Child("baseline.place")
	p, err := baseline.PlaceChunksModelCtx(ctx, bm, req.Producer, req.Chunks, st, alg, lambda, pl)
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	psp.End()
	return newResult(s, name, req.Producer, req.Chunks, o.Capacity, p.Holders, st, base, strategy), nil
}

// solveOptimal runs the exact per-chunk branch-and-bound reference.
func (s *Solver) solveOptimal(ctx context.Context, req Request, o Options, sp *trace.Span) (*Result, error) {
	st := newState(s.topo, nil, o)
	base := st.Clone()
	pl := pool.New(0)
	defer pl.Close()
	// The reference objective has no battery term, so the fork carries the
	// fairness weight only.
	m, err := s.forkBase(ctx, pl, st, costmodel.Options{FairnessWeight: o.FairnessWeight}, sp)
	if err != nil {
		return nil, err
	}
	psp := sp.Child("exact.place")
	p, err := exact.PlaceChunksCtx(ctx, m, req.Producer, req.Chunks, exact.Options{
		MaxSubsetSize: o.SearchWidth,
		NodeBudget:    o.SearchBudget,
	}, pl)
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	psp.End()
	res := newResult(s, AlgorithmOptimal, req.Producer, req.Chunks, o.Capacity, p.CacheNodes(), st, base, metrics.AccessCostNearest)
	res.ProvenOptimal = p.Optimal()
	return res, nil
}
