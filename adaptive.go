package faircache

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/demand"
	"repro/internal/pool"
	"repro/internal/trace"
)

// RequestEvent is one observed demand event: node Node requested chunk
// Chunk.
type RequestEvent struct {
	Node  int `json:"node"`
	Chunk int `json:"chunk"`
}

// AdaptiveOptions tunes an adaptive caching system. Zero values select
// the documented defaults; a negative Capacity, HitRadius, TopDelta or
// CopyBudget is ErrBadArgument.
type AdaptiveOptions struct {
	// Capacity is the per-node cache capacity in chunks (default 5).
	Capacity int
	// Eviction names the score adaptation passes evict copies by, lowest
	// first: "cost" (default — the demand-weighted retrieval-cost increase
	// the copy's removal would cause), "lru" (the tick of the copy's last
	// store or serve) or "lfu" (its serves since it was stored). Any
	// other name is ErrBadArgument.
	Eviction string
	// HitRadius is the hop distance within which a cache copy counts as a
	// local hit (default 2).
	HitRadius int
	// TopDelta bounds how many top-demand chunks one adaptation pass
	// re-examines (default 8).
	TopDelta int
	// CopyBudget bounds how many copies one adaptation pass may move
	// (default 3×TopDelta).
	CopyBudget int
}

// AdaptiveStats is a snapshot of an adaptive system's serving and
// adaptation counters, plus the derived quality metrics the evaluation
// reports.
type AdaptiveStats struct {
	Requests       int64   `json:"requests"`
	LocalHits      int64   `json:"localHits"`
	CacheHits      int64   `json:"cacheHits"`
	ProducerServed int64   `json:"producerServed"`
	Evictions      int64   `json:"evictions"`
	Adaptations    int64   `json:"adaptations"`
	CopiesPlaced   int64   `json:"copiesPlaced"`
	HitRate        float64 `json:"hitRate"`
	CacheRate      float64 `json:"cacheRate"`
	MeanCost       float64 `json:"meanCost"`
	P99Cost        float64 `json:"p99Cost"`
	Gini           float64 `json:"gini"`
	Eviction       string  `json:"eviction"`
}

// BatchResult summarizes one Report call.
type BatchResult struct {
	// Requests is the number of events ingested.
	Requests int64 `json:"requests"`
	// LocalHits counts events served by a cache copy within HitRadius
	// hops; CacheHits counts events served by any cache copy.
	LocalHits int64 `json:"localHits"`
	CacheHits int64 `json:"cacheHits"`
}

// AdaptationResult summarizes one adaptation pass.
type AdaptationResult struct {
	// TopChunks lists the chunk ids the pass examined, hottest first.
	TopChunks []int `json:"topChunks"`
	// Evicted and Placed count the copies the pass removed and added.
	Evicted int `json:"evicted"`
	Placed  int `json:"placed"`
	// Replaced lists chunks that had lost every copy and were re-placed
	// by a full fair-caching iteration.
	Replaced []int `json:"replaced,omitempty"`
	// Trace is the per-phase explain summary, present only when the pass
	// ran with AdaptRunOptions.Explain.
	Trace *ExplainReport `json:"trace,omitempty"`
}

// AdaptRunOptions tunes one adaptation pass's observability; see the
// same-named Options field on solve requests.
type AdaptRunOptions struct {
	// Explain records the pass's phase spans and returns the summary in
	// AdaptationResult.Trace.
	Explain bool
}

// AdaptiveSystem is the request-driven adaptive caching variant: a static
// fair placement is seeded once, then a live request stream drives
// popularity estimates and periodic adaptation passes that re-place the
// most mispositioned chunks through Commit/Evict on a fork of the solver's
// shared cost model. Unlike the Solver that created it, an AdaptiveSystem is a
// mutable stream consumer and is NOT safe for concurrent use; callers
// (the server's per-topology worker) serialize access.
type AdaptiveSystem struct {
	sys  *demand.System
	topo *Topology
	name string
}

// NewAdaptive builds and seeds an adaptive caching system on the
// solver's topology: chunk ids [0, chunks) are placed once by the fair
// caching approximation (warm-forking the solver's topology cost model,
// so repeat systems skip the cold all-pairs build), ready to serve and
// adapt to a request stream.
func (s *Solver) NewAdaptive(ctx context.Context, producer, chunks int, opts *AdaptiveOptions) (*AdaptiveSystem, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := AdaptiveOptions{}
	if opts != nil {
		o = *opts
	}
	if o.Capacity == 0 {
		o.Capacity = 5
	}
	if o.Capacity < 0 {
		return nil, fmt.Errorf("%w: negative capacity %d", ErrBadArgument, o.Capacity)
	}
	var eviction demand.Eviction
	switch o.Eviction {
	case "", "cost":
		o.Eviction = "cost"
	case "lru":
		eviction = demand.EvictLRU
	case "lfu":
		eviction = demand.EvictLFU
	default:
		return nil, fmt.Errorf("%w: unknown eviction strategy %q", ErrBadArgument, o.Eviction)
	}

	pl := pool.New(0)
	defer pl.Close()
	var dead trace.Span
	bm, err := s.baseModel(ctx, pl, &dead)
	if err != nil {
		return nil, err
	}
	st := cache.NewState(s.topo.g.NumNodes(), o.Capacity)
	// The fairness cost term carries the paper's weight 1.
	m, err := bm.ForkCtx(ctx, pl, st, costmodel.Options{FairnessWeight: 1})
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	sys, err := demand.New(m, producer, chunks, demand.Options{
		Eviction:   eviction,
		HitRadius:  o.HitRadius,
		TopDelta:   o.TopDelta,
		CopyBudget: o.CopyBudget,
	})
	if err != nil {
		return nil, demandError(err)
	}
	if err := sys.SeedCtx(ctx); err != nil {
		return nil, demandError(err)
	}
	return &AdaptiveSystem{sys: sys, topo: s.topo, name: o.Eviction}, nil
}

// demandError wraps an error from the adaptive engine for the public API:
// its input errors also satisfy errors.Is(err, ErrBadArgument), while
// context expiry and everything else pass through unmarked.
func demandError(err error) error {
	if errors.Is(err, demand.ErrBadInput) {
		return fmt.Errorf("%w: %w", ErrBadArgument, err)
	}
	return fmt.Errorf("faircache: %w", err)
}

// Report ingests a batch of request events: each is served by its
// nearest current copy (or the producer), feeding the hit/miss
// accounting and the popularity estimates the next Adapt call uses. An
// out-of-range node or chunk fails the whole batch, before any event is
// served, with an error satisfying errors.Is(err, ErrBadArgument).
func (a *AdaptiveSystem) Report(events []RequestEvent) (BatchResult, error) {
	for i, e := range events {
		if err := a.sys.CheckEvent(e.Node, e.Chunk); err != nil {
			return BatchResult{}, demandError(fmt.Errorf("event %d: %w", i, err))
		}
	}
	before := a.sys.Stats()
	for _, e := range events {
		if _, _, err := a.sys.Observe(e.Node, e.Chunk); err != nil {
			return BatchResult{}, demandError(err)
		}
	}
	after := a.sys.Stats()
	return BatchResult{
		Requests:  after.Requests - before.Requests,
		LocalHits: after.LocalHits - before.LocalHits,
		CacheHits: after.CacheHits - before.CacheHits,
	}, nil
}

// Adapt runs one adaptation pass against the current popularity
// estimates (see demand.System.AdaptCtx for the exact phases).
func (a *AdaptiveSystem) Adapt(ctx context.Context) (*AdaptationResult, error) {
	return a.AdaptWith(ctx, nil)
}

// AdaptWith is Adapt with per-pass observability options: an Explain
// pass records the five phases' spans (score, evict, replace,
// redundancy, fill) and returns the summary in AdaptationResult.Trace.
// The spans record into the trace the context carries, if any (the
// daemon's); an Explain pass whose context carries none keeps its spans
// for its report only. nil opts behaves exactly like Adapt.
func (a *AdaptiveSystem) AdaptWith(ctx context.Context, opts *AdaptRunOptions) (*AdaptationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o AdaptRunOptions
	if opts != nil {
		o = *opts
	}
	tr := trace.FromContext(ctx)
	if tr == nil && o.Explain {
		tr = trace.Collect()
	}
	sp := tr.Start("adapt")
	rep, err := a.sys.AdaptTraceCtx(ctx, &sp)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	res := &AdaptationResult{
		TopChunks: rep.TopChunks,
		Evicted:   len(rep.Evicted),
		Placed:    len(rep.Placed),
		Replaced:  rep.Replaced,
	}
	if o.Explain {
		res.Trace = buildExplain(tr, "adapt")
	}
	return res, nil
}

// Stats returns the current counters and quality metrics.
func (a *AdaptiveSystem) Stats() AdaptiveStats {
	st := a.sys.Stats()
	return AdaptiveStats{
		Requests:       st.Requests,
		LocalHits:      st.LocalHits,
		CacheHits:      st.CacheHits,
		ProducerServed: st.ProducerServed,
		Evictions:      st.Evictions,
		Adaptations:    st.Adaptations,
		CopiesPlaced:   st.CopiesPlaced,
		HitRate:        st.HitRate(),
		CacheRate:      st.CacheRate(),
		MeanCost:       st.MeanCost(),
		P99Cost:        a.sys.P99Cost(),
		Gini:           a.sys.Gini(),
		Eviction:       a.name,
	}
}

// Holders returns the nodes currently caching chunk k, sorted.
func (a *AdaptiveSystem) Holders(k int) []int { return a.sys.Holders(k) }

// Placement returns every chunk's current holder list.
func (a *AdaptiveSystem) Placement() [][]int { return a.sys.Placement() }

// Counts returns the per-node cached-chunk counts.
func (a *AdaptiveSystem) Counts() []int { return a.sys.State().Counts() }

// Gini returns the Gini coefficient of the current caching load.
func (a *AdaptiveSystem) Gini() float64 { return a.sys.Gini() }

// Producer returns the producer node.
func (a *AdaptiveSystem) Producer() int { return a.sys.Producer() }

// Chunks returns the chunk-id space size.
func (a *AdaptiveSystem) Chunks() int { return a.sys.Chunks() }
