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
	"math"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/pool"
)

// Errors returned by the demand system.
var ErrBadInput = errors.New("demand: invalid input")

// MaxCells caps chunks × nodes for one System. Its per-(chunk, node)
// retrieval table and eviction score table take about 20 bytes a cell,
// so the largest System holds about 84 MB of them; New refuses a larger
// one.
const MaxCells = 1 << 22

// Eviction selects how an adaptation pass scores copies for pressure
// eviction; the copy with the lowest score is evicted first.
type Eviction int

const (
	// EvictCost scores a copy by the demand-weighted retrieval-cost
	// increase its removal would cause (the default).
	EvictCost Eviction = iota
	// EvictLRU scores a copy by the tick of its last store or serve.
	EvictLRU
	// EvictLFU scores a copy by its serves since it was last stored.
	EvictLFU
)

// Options configures the adaptive caching system. Zero values select the
// documented defaults. The topology, capacities and cost weights are not
// options: they belong to the cost model the system runs on.
type Options struct {
	// Eviction selects the score pressure eviction ranks copies by when
	// the adaptation loop frees capacity (default EvictCost).
	Eviction Eviction
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
// placement, a popularity tracker, and the copies' eviction scores.
type System struct {
	producer int
	chunks   int
	opts     Options

	model   *costmodel.Model
	st      *cache.State
	tracker *Tracker

	hop     [][]int32 // hop[j]: the path cache's hop row from j
	order   [][]int32 // order[j]: the path cache's BFS visit order from j, j first
	holders [][]int   // per-chunk holder lists, sorted

	// records[k*n+j] == nearestTwo(j, k) for every chunk k and requester
	// j at all times: the one retrieval table that serving, ranking,
	// placement and eviction read. New fills it for the empty placement;
	// after that only holdersAdd and holdersRemove write it.
	records []record

	clock int64

	// scores[k*n+v] is copy (v, k)'s eviction score; only chunk k's own
	// stores, serves and evictions write row k. EvictCost re-sums the
	// table from the records at each pass (sumEvictCost); EvictLRU and
	// EvictLFU keep it current as copies are stored and serve (touch).
	scores []float64
	gain   []float64 // the redundancy phase's per-candidate gains

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
	if opts.HitRadius < 0 || opts.TopDelta < 0 || opts.CopyBudget < 0 {
		return nil, fmt.Errorf("%w: negative HitRadius %d, TopDelta %d or CopyBudget %d", ErrBadInput, opts.HitRadius, opts.TopDelta, opts.CopyBudget)
	}
	if chunks > MaxCells/g.NumNodes() {
		return nil, fmt.Errorf("%w: %d chunks on %d nodes exceeds %d (chunk, node) cells", ErrBadInput, chunks, g.NumNodes(), MaxCells)
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
	s := &System{
		producer: producer,
		chunks:   chunks,
		opts:     opts,
		model:    m,
		st:       st,
		tracker:  NewTracker(chunks, n, windowBuckets, bucketSize, trackerAlpha),
		hop:      hop,
		order:    order,
		holders:  make([][]int, chunks),
		records:  make([]record, chunks*n),
		scores:   make([]float64, chunks*n),
		hist:     make([]int64, maxHop+2),
		gain:     make([]float64, n),
	}
	for i := range s.records {
		s.records[i] = s.nearestTwo(i%n, i/n)
	}
	return s, nil
}

// SeedCtx runs the fair-caching approximation once over all chunks
// against the empty state — the static initial placement the adaptation
// loop then refines. It must be called exactly once, before any request.
func (s *System) SeedCtx(ctx context.Context) error {
	if s.clock != 0 || s.st.TotalStored() != 0 {
		return fmt.Errorf("%w: seed on a non-empty system", ErrBadInput)
	}
	pl := pool.New(0)
	defer pl.Close()
	p, err := core.PlaceCtx(ctx, s.model, s.producer, s.chunks, core.DefaultOptions(), pl)
	if err != nil {
		return err
	}
	for _, cr := range p.Chunks {
		s.holders[cr.Chunk] = make([]int, 0, len(cr.CacheNodes))
		for _, v := range cr.CacheNodes {
			s.holdersAdd(cr.Chunk, v)
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

// CheckEvent reports an out-of-range node or chunk as ErrBadInput: the
// check Observe makes, for callers that validate a batch before serving
// any of it.
func (s *System) CheckEvent(node, chunk int) error {
	if node < 0 || node >= len(s.hop) {
		return fmt.Errorf("%w: node %d", ErrBadInput, node)
	}
	if chunk < 0 || chunk >= s.chunks {
		return fmt.Errorf("%w: chunk %d", ErrBadInput, chunk)
	}
	return nil
}

// Observe serves one request event: node asks for chunk. It updates the
// popularity tracker, the hit/miss accounting and the serving copy's
// LRU or LFU score, and returns the serving node and its hop distance,
// read from the retrieval table.
func (s *System) Observe(node, chunk int) (server, hops int, err error) {
	if err := s.CheckEvent(node, chunk); err != nil {
		return 0, 0, err
	}
	r := s.records[chunk*len(s.hop)+node]
	server, hops = s.producer, int(r.best)
	s.clock++
	if r.server >= 0 {
		server = int(r.server)
		s.touch(server, chunk, true)
	}
	s.tracker.Observe(node, chunk)

	s.statsMu.Lock()
	s.stats.Requests++
	s.stats.CostSum += float64(hops)
	if r.server >= 0 {
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

// record is requester j's view of chunk k: the copy serving it (-1 when
// the producer does) and the hop distances to that server and to the
// nearest other server, producer included (MaxInt32 when there is none).
type record struct {
	server, best, second int32
}

// nearestTwo scans chunk k's holders once for requester j's record. It
// states the serving rule in full: the nearest server, a copy winning a
// tie with the producer, then the lowest id (holder lists are sorted).
// holdersAdd applies the same rule to one new copy.
func (s *System) nearestTwo(j, k int) record {
	row := s.hop[j]
	r := record{server: -1, best: row[s.producer], second: math.MaxInt32}
	for _, v := range s.holders[k] {
		if d := row[v]; d < r.best || (d == r.best && r.server < 0) {
			r.second = min(r.second, r.best)
			r.server, r.best = int32(v), d
		} else {
			r.second = min(r.second, d)
		}
	}
	return r
}

// touch writes copy (v, k)'s LRU or LFU score for a store (served
// false) or a serve: LRU takes the current tick, LFU restarts its count
// at 0 on a store and adds 1 per serve. EvictCost scores are summed at
// each pass instead, so touch leaves them alone.
func (s *System) touch(v, k int, served bool) {
	i := k*len(s.hop) + v
	switch s.opts.Eviction {
	case EvictLRU:
		s.scores[i] = float64(s.clock)
	case EvictLFU:
		if served {
			s.scores[i]++
		} else {
			s.scores[i] = 0
		}
	}
}

// holdersAdd records a new copy of chunk k on node v: it inserts v into
// the chunk's sorted holder list, touches the copy's score as a store,
// and updates every requester's record in O(1) under nearestTwo's
// serving rule. v becomes the server when it is nearer than the server,
// or as near and either the producer serves or v has the lower id; the
// old server's distance is then the second. Otherwise v can only lower
// the second distance. Hop counts are symmetric, so v's own row gives
// every requester's distance to v.
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
	s.touch(v, k, false)
	n := len(s.hop)
	recs := s.records[k*n : (k+1)*n]
	for j, d := range s.hop[v] {
		r := &recs[j]
		if d < r.best || (d == r.best && (r.server < 0 || int32(v) < r.server)) {
			r.server, r.best, r.second = int32(v), d, r.best
		} else {
			r.second = min(r.second, d)
		}
	}
}

// holdersRemove deletes v from chunk k's holder list and rescans the
// records it can move: those of the requesters v served, and of those
// whose second-nearest distance equals their distance to v (v may have
// been that second server). The rest keep their server and both
// distances. Unlike an addition this needs the scan: a departure can
// promote a third-nearest server, which the record does not keep.
func (s *System) holdersRemove(k, v int) {
	h := s.holders[k]
	i, _ := slices.BinarySearch(h, v)
	if i == len(h) || h[i] != v {
		return
	}
	s.holders[k] = append(h[:i], h[i+1:]...)
	n := len(s.hop)
	recs := s.records[k*n : (k+1)*n]
	for j, d := range s.hop[v] {
		if r := recs[j]; int(r.server) == v || r.second == d {
			recs[j] = s.nearestTwo(j, k)
		}
	}
}

// commit stores chunk k on node v through the model and syncs the holder
// list.
func (s *System) commit(v, k int) error {
	if err := s.model.Commit(v, k); err != nil {
		return err
	}
	s.holdersAdd(k, v)
	return nil
}

// evict removes chunk k from node v through the model and syncs the
// holder list, reporting whether a copy was removed.
func (s *System) evict(v, k int) bool {
	if !s.model.Evict(v, k) {
		return false
	}
	s.holdersRemove(k, v)
	s.statsMu.Lock()
	s.stats.Evictions++
	s.statsMu.Unlock()
	return true
}
