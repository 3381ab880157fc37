// Package demand is the request-driven adaptive caching subsystem: it
// serves a live stream of chunk requests against the current placement,
// maintains online popularity estimates (sliding window + EWMA, package
// Tracker), and periodically re-places the most mispositioned chunks
// through Commit/Evict on the shared cost model, which keeps its warm path
// cache, so a pass never pays a cold model build. Where
// faircache.OnlineSystem places chunks as they are published, this
// engine moves copies as the demand for them shifts, following the
// adaptation-loop design of Ioannidis & Yeh (Adaptive Caching Networks
// with Optimality Guarantees) and the demand-weighted
// diversity/redundancy tradeoff of Wang et al.
//
// A System is not safe for concurrent use; callers (the server's
// per-topology worker, the eval replayer) serialize mutations exactly as
// they do for the online system. Stats alone may be read concurrently.
package demand

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pool"
)

// Errors returned by the demand system.
var ErrBadInput = errors.New("demand: invalid input")

// Options configures the adaptive caching system. Zero values select the
// documented defaults. The topology, capacities and cost weights are not
// options: they belong to the cost model the system runs on.
type Options struct {
	// Workers sizes the solver pool for seeding and adaptation placements.
	Workers int
	// Eviction selects the replacement strategy consulted when the
	// adaptation loop frees capacity; nil selects the cost-aware strategy
	// backed by the system's demand-weighted marginal-cost estimate.
	Eviction cache.EvictionStrategy
	// HitRadius is the hop distance within which a cache copy counts as a
	// local hit (default 2, the paper's K-hop neighborhood).
	HitRadius int
	// TopDelta bounds how many top-demand chunks one adaptation pass
	// re-examines (default 8).
	TopDelta int
	// CopyBudget bounds how many existing copies one adaptation pass may
	// displace: pressure-eviction frees at most this many occupied slots
	// (default 3×TopDelta). Free capacity is always eligible for filling
	// — the redundancy phase places into every free slot with a positive
	// demand-weighted gain, so the network's storage is actually used.
	CopyBudget int
}

// Fixed tuning of the adaptation loop and the popularity tracker.
const (
	// fairnessBias scales the storage-fairness penalty inside the
	// redundancy greedy, trading hit-rate against Gini.
	fairnessBias = 0.02
	// windowBuckets × bucketSize requests make the popularity tracker's
	// sliding window; trackerAlpha is its EWMA weight.
	windowBuckets = 8
	bucketSize    = 2048
	trackerAlpha  = 0.3
)

func (o Options) withDefaults() Options {
	if o.HitRadius == 0 {
		o.HitRadius = 2
	}
	if o.TopDelta == 0 {
		o.TopDelta = 8
	}
	if o.CopyBudget == 0 {
		o.CopyBudget = 3 * o.TopDelta
	}
	return o
}

// Stats is a snapshot of the system's request/adaptation counters.
type Stats struct {
	// Requests counts observed request events.
	Requests int64
	// LocalHits counts requests served by a cache copy within HitRadius
	// hops; CacheHits counts requests served by any cache copy;
	// ProducerServed counts requests that fell through to the producer.
	LocalHits      int64
	CacheHits      int64
	ProducerServed int64
	// Evictions, Adaptations and CopiesPlaced count the adaptation loop's
	// work (seeding does not count toward CopiesPlaced).
	Evictions    int64
	Adaptations  int64
	CopiesPlaced int64
	// CostSum totals the hop-distance retrieval cost over all requests.
	CostSum float64
}

// HitRate returns the fraction of requests served within HitRadius.
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.LocalHits) / float64(s.Requests)
}

// CacheRate returns the fraction of requests served by any cache copy.
func (s Stats) CacheRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Requests)
}

// MeanCost returns the mean hop-distance retrieval cost per request.
func (s Stats) MeanCost() float64 {
	if s.Requests == 0 {
		return 0
	}
	return s.CostSum / float64(s.Requests)
}

// System is one adaptive caching instance: a live cost model, the current
// placement, a popularity tracker, and an eviction strategy.
type System struct {
	g        *graph.Graph
	producer int
	chunks   int
	opts     Options

	model   *costmodel.Model
	st      *cache.State
	strat   cache.EvictionStrategy
	tracker *Tracker

	hop     [][]int32 // hop[j]: the path cache's hop row from j
	order   [][]int32 // order[j]: the path cache's BFS visit order from j, j first
	holders [][]int   // per-chunk holder lists, sorted

	clock int64

	// oracle state for the built-in cost-aware strategy, rebuilt each
	// eviction pass: costOracle[k*n+v] is copy (v, k)'s demand-weighted
	// marginal retrieval cost, summed from the per-requester records
	// records[k*n+j].
	costOracle []float64
	records    []evictRecord

	// Scratch of the adaptation scans: a multi-source BFS row and queue,
	// its sources, and the redundancy gains.
	dist, queue []int32
	srcs        []int
	gain        []float64

	statsMu sync.Mutex
	stats   Stats
	hist    []int64 // request count by retrieval hop distance
}

// New builds an adaptive system on the cost model m, which it adopts: the
// model's graph is the topology (which must be connected), its cache
// state (which must be empty) fixes the capacities, and its weights the
// fairness costs. The root Solver passes a warm fork of its topology
// model, so adaptive systems skip the cold all-pairs build. The producer
// holds every chunk locally and never caches; chunk ids are [0, chunks).
func New(m *costmodel.Model, producer, chunks int, opts Options) (*System, error) {
	opts = opts.withDefaults()
	if m == nil || m.Graph().NumNodes() < 2 {
		return nil, fmt.Errorf("%w: nil model or trivial topology", ErrBadInput)
	}
	g, st := m.Graph(), m.State()
	if producer < 0 || producer >= g.NumNodes() {
		return nil, fmt.Errorf("%w: producer %d", ErrBadInput, producer)
	}
	if chunks < 1 {
		return nil, fmt.Errorf("%w: chunks %d", ErrBadInput, chunks)
	}
	if st.TotalStored() != 0 {
		return nil, fmt.Errorf("%w: model state is not empty", ErrBadInput)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("%w: topology is not connected", ErrBadInput)
	}
	n := g.NumNodes()
	hop := make([][]int32, n)
	order := make([][]int32, n)
	maxHop := int32(0)
	for i := range hop {
		hop[i] = m.PathCache().HopDistances(i)
		order[i] = m.PathCache().VisitOrder(i)
		maxHop = max(maxHop, slices.Max(hop[i]))
	}
	strat := opts.Eviction
	s := &System{
		g:        g,
		producer: producer,
		chunks:   chunks,
		opts:     opts,
		model:    m,
		st:       st,
		tracker:  NewTracker(chunks, n, windowBuckets, bucketSize, trackerAlpha),
		hop:      hop,
		order:    order,
		holders:  make([][]int, chunks),
		hist:     make([]int64, maxHop+2),
		dist:     make([]int32, n),
		queue:    make([]int32, 0, n),
		gain:     make([]float64, n),
	}
	if strat == nil {
		s.costOracle = make([]float64, chunks*n)
		s.records = make([]evictRecord, chunks*n)
		strat = cache.NewCostAware(func(node, chunk int) float64 {
			if node < 0 || node >= n || chunk < 0 || chunk >= chunks {
				return 0
			}
			return s.costOracle[chunk*n+node]
		})
	}
	s.strat = strat
	return s, nil
}

// SeedCtx runs the fair-caching approximation once over all chunks
// against the empty state — the static initial placement the adaptation
// loop then refines. It must be called exactly once, before any request.
func (s *System) SeedCtx(ctx context.Context) error {
	if s.clock != 0 || s.st.TotalStored() != 0 {
		return fmt.Errorf("%w: seed on a non-empty system", ErrBadInput)
	}
	pl := s.newPool()
	defer pl.Close()
	p, err := core.PlaceCtx(ctx, s.model, s.producer, s.chunks, core.DefaultOptions(), pl)
	if err != nil {
		return err
	}
	for _, cr := range p.Chunks {
		s.holders[cr.Chunk] = append([]int(nil), cr.CacheNodes...)
		for _, v := range cr.CacheNodes {
			s.strat.OnStore(v, cr.Chunk, s.clock)
		}
	}
	return nil
}

// Producer returns the producer node.
func (s *System) Producer() int { return s.producer }

// Chunks returns the chunk-id space size.
func (s *System) Chunks() int { return s.chunks }

// State returns the live cache state (read-only for callers).
func (s *System) State() *cache.State { return s.st }

// Model returns the live cost model, the hook for verification tests.
func (s *System) Model() *costmodel.Model { return s.model }

// Strategy returns the eviction strategy in use.
func (s *System) Strategy() cache.EvictionStrategy { return s.strat }

// Tracker returns the popularity tracker.
func (s *System) Tracker() *Tracker { return s.tracker }

// Holders returns the nodes currently caching chunk k, sorted.
func (s *System) Holders(k int) []int {
	if k < 0 || k >= s.chunks {
		return nil
	}
	return append([]int(nil), s.holders[k]...)
}

// Placement returns a copy of every chunk's holder list.
func (s *System) Placement() [][]int {
	out := make([][]int, s.chunks)
	for k := range s.holders {
		out[k] = append([]int(nil), s.holders[k]...)
	}
	return out
}

// Gini returns the Gini coefficient of the per-node cached-chunk counts.
func (s *System) Gini() float64 { return metrics.Gini(s.st.Counts()) }

// Stats returns a snapshot of the counters. Safe to call concurrently
// with Observe/Adapt from the owning goroutine's perspective (the
// counters are mutex-guarded; the placement itself is not).
func (s *System) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// P99Cost returns the 99th-percentile hop-distance retrieval cost.
func (s *System) P99Cost() float64 { return s.PercentileCost(0.99) }

// PercentileCost returns the q-quantile (q in (0,1]) of the retrieval
// cost distribution, from the exact hop histogram.
func (s *System) PercentileCost(q float64) float64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if s.stats.Requests == 0 {
		return 0
	}
	need := int64(q * float64(s.stats.Requests))
	if need < 1 {
		need = 1
	}
	var cum int64
	for h, c := range s.hist {
		cum += c
		if cum >= need {
			return float64(h)
		}
	}
	return float64(len(s.hist) - 1)
}

// nearestServer returns the serving node and hop distance for a request
// (j, k): the closest current holder of k, falling back to the producer.
// Ties prefer a cache copy over the producer, then the lowest node id
// (holder lists are sorted), so serving is deterministic.
func (s *System) nearestServer(j, k int) (server, hops int) {
	best, bestD := s.producer, int(s.hop[j][s.producer])
	if bestD == graph.Unreachable {
		bestD = int(^uint(0) >> 1) // unreachable producer: any holder wins
	}
	fromCache := false
	for _, v := range s.holders[k] {
		if d := int(s.hop[j][v]); d != graph.Unreachable && (d < bestD || (d == bestD && !fromCache)) {
			best, bestD, fromCache = v, d, true
		}
	}
	return best, bestD
}

// Observe serves one request event: node asks for chunk. It updates the
// popularity tracker, the hit/miss accounting and the eviction
// strategy's recency/frequency state, and returns the serving node and
// its hop distance.
func (s *System) Observe(node, chunk int) (server, hops int, err error) {
	if node < 0 || node >= s.g.NumNodes() {
		return 0, 0, fmt.Errorf("%w: node %d", ErrBadInput, node)
	}
	if chunk < 0 || chunk >= s.chunks {
		return 0, 0, fmt.Errorf("%w: chunk %d", ErrBadInput, chunk)
	}
	server, hops = s.nearestServer(node, chunk)
	s.clock++
	if server != s.producer {
		s.strat.OnAccess(server, chunk, s.clock)
	}
	s.tracker.Observe(node, chunk)

	s.statsMu.Lock()
	s.stats.Requests++
	s.stats.CostSum += float64(hops)
	if server != s.producer {
		s.stats.CacheHits++
		if hops <= s.opts.HitRadius {
			s.stats.LocalHits++
		}
	} else {
		s.stats.ProducerServed++
	}
	if hops >= 0 && hops < len(s.hist) {
		s.hist[hops]++
	} else {
		s.hist[len(s.hist)-1]++
	}
	s.statsMu.Unlock()
	return server, hops, nil
}

// holdersAdd inserts v into chunk k's sorted holder list.
func (s *System) holdersAdd(k, v int) {
	h := s.holders[k]
	i, _ := slices.BinarySearch(h, v)
	if i < len(h) && h[i] == v {
		return
	}
	h = append(h, 0)
	copy(h[i+1:], h[i:])
	h[i] = v
	s.holders[k] = h
}

// holdersRemove deletes v from chunk k's holder list.
func (s *System) holdersRemove(k, v int) {
	h := s.holders[k]
	i, _ := slices.BinarySearch(h, v)
	if i < len(h) && h[i] == v {
		s.holders[k] = append(h[:i], h[i+1:]...)
	}
}

// commit stores chunk k on node v through the model and syncs the holder
// list and strategy.
func (s *System) commit(v, k int) error {
	if err := s.model.Commit(v, k); err != nil {
		return err
	}
	s.holdersAdd(k, v)
	s.strat.OnStore(v, k, s.clock)
	return nil
}

// evict removes chunk k from node v through the model and syncs the
// holder list and strategy, reporting whether a copy was removed.
func (s *System) evict(v, k int) bool {
	if !s.model.Evict(v, k) {
		return false
	}
	s.holdersRemove(k, v)
	s.strat.OnEvict(v, k)
	s.statsMu.Lock()
	s.stats.Evictions++
	s.statsMu.Unlock()
	return true
}

// newPool returns the worker pool adaptation passes fan out over.
func (s *System) newPool() *pool.Pool { return pool.New(pool.Normalize(s.opts.Workers)) }
