// Package online implements the paper's future-work direction (Sec. VI):
// an online fair-caching system in which chunks are published over time,
// stale chunks expire and are evicted (cache replacement), and each
// arrival is placed by one iteration of the fair-caching approximation
// algorithm against the *current* storage state. Because eviction lowers
// the fairness degree cost of previously loaded nodes, storage is recycled
// fairly over long horizons instead of filling up once and deadlocking.
package online

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
)

// Options configures the online system.
type Options struct {
	// Capacity is the per-node cache capacity in chunks.
	Capacity int
	// TTL is a chunk's lifetime measured in subsequent publications; a
	// chunk published at time t expires before the publication at
	// t + TTL. TTL <= 0 means chunks never expire.
	TTL int
	// Core tunes the per-arrival placement.
	Core core.Options
}

// DefaultOptions matches the paper's evaluation parameters with a TTL of
// one capacity-worth of publications.
func DefaultOptions() Options {
	return Options{
		Capacity: 5,
		TTL:      5,
		Core:     core.DefaultOptions(),
	}
}

// Publication records one online placement.
type Publication struct {
	// Chunk is the published chunk's id.
	Chunk int
	// Time is the publication index (1-based).
	Time int
	// CacheNodes lists the nodes now caching the chunk.
	CacheNodes []int
	// Expired lists chunk ids evicted before this placement.
	Expired []int
}

// System is an online fair-caching instance over one topology. It keeps a
// live cost model across publications: arrivals and TTL evictions mutate
// the model (delta updates) instead of rebuilding fairness and contention
// costs from scratch on every publication.
type System struct {
	g        *graph.Graph
	solver   *core.Solver
	st       *cache.State
	pc       *graph.PathCache
	model    *costmodel.Model
	producer int
	opts     Options

	clock  int
	nextID int
	expiry map[int]int      // chunk id -> expiry time
	live   map[int]struct{} // chunk ids placed and not yet expired
}

// ErrBadInput reports invalid options or arguments.
var ErrBadInput = errors.New("online: invalid input")

// New builds an online system. The producer never caches.
func New(g *graph.Graph, producer int, opts Options) (*System, error) {
	if opts.Capacity <= 0 {
		return nil, fmt.Errorf("%w: capacity %d", ErrBadInput, opts.Capacity)
	}
	// The system owns the shortest-path memo so topology swaps can drop
	// its entries (SetTopology) instead of leaking one cache per epoch.
	pc := graph.NewPathCache(g)
	coreOpts := opts.Core
	coreOpts.PathCache = pc
	solver, err := core.New(g, coreOpts)
	if err != nil {
		return nil, err
	}
	if producer < 0 || producer >= g.NumNodes() {
		return nil, fmt.Errorf("%w: producer %d", ErrBadInput, producer)
	}
	st := cache.NewState(g.NumNodes(), opts.Capacity)
	model, err := costmodel.New(g, pc, st, costmodel.Options{
		FairnessWeight: opts.Core.FairnessWeight,
		BatteryWeight:  opts.Core.BatteryWeight,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return &System{
		g:        g,
		solver:   solver,
		st:       st,
		pc:       pc,
		model:    model,
		producer: producer,
		opts:     opts,
		expiry:   make(map[int]int),
		live:     make(map[int]struct{}),
	}, nil
}

// SetTopology swaps the network topology (device mobility): subsequent
// publications place against the new connectivity while cached chunks and
// their expiry clocks carry over. The node set must stay the same size.
// The shortest-path memo is reset — entries for the old connectivity are
// dropped rather than accumulated across swaps — and the cost model
// rebuilds on the next publication (a connectivity change invalidates
// every cached path, so there is nothing to repair incrementally).
func (s *System) SetTopology(g *graph.Graph) error {
	if g.NumNodes() != s.g.NumNodes() {
		return fmt.Errorf("%w: topology has %d nodes, system has %d", ErrBadInput, g.NumNodes(), s.g.NumNodes())
	}
	coreOpts := s.opts.Core
	coreOpts.PathCache = s.pc
	// Validate the new topology before touching any state: core.New
	// rejects disconnected graphs without reading the path cache.
	solver, err := core.New(g, coreOpts)
	if err != nil {
		return err
	}
	if err := s.model.SwapTopology(g); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	s.g = g
	s.solver = solver
	return nil
}

// Publish places the next chunk: expired chunks are evicted first, then
// one fair-caching iteration runs against the refreshed state.
func (s *System) Publish() (*Publication, error) {
	return s.PublishCtx(context.Background())
}

// PublishCtx is Publish with cancellation: ctx is checked before the clock
// advances (a pre-cancelled context leaves the system untouched) and
// throughout the placement iteration. A cancelled placement returns an
// error satisfying errors.Is with ctx.Err(); the publication is not
// committed, but the clock tick and any TTL evictions it triggered stand —
// they reflect time passing, not the abandoned placement.
func (s *System) PublishCtx(ctx context.Context) (*Publication, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("online: publish: %w", err)
	}
	s.clock++
	pub := &Publication{
		Chunk: s.nextID,
		Time:  s.clock,
	}
	s.nextID++

	// Cache replacement: evict chunks whose lifetime has passed.
	if s.opts.TTL > 0 {
		var stale []int
		for id, exp := range s.expiry {
			if exp <= s.clock {
				stale = append(stale, id)
			}
		}
		slices.Sort(stale)
		for _, id := range stale {
			for _, holder := range s.st.Holders(id) {
				s.model.Evict(holder, id)
			}
			delete(s.expiry, id)
			delete(s.live, id)
		}
		pub.Expired = stale
	}

	res, err := s.solver.PlaceOneModelCtx(ctx, s.producer, pub.Chunk, s.model)
	if err != nil {
		return nil, fmt.Errorf("online: publish chunk %d: %w", pub.Chunk, err)
	}
	pub.CacheNodes = append([]int(nil), res.CacheNodes...)
	s.live[pub.Chunk] = struct{}{}
	if s.opts.TTL > 0 {
		s.expiry[pub.Chunk] = s.clock + s.opts.TTL
	}
	return pub, nil
}

// Holders returns the nodes currently caching the given chunk (empty once
// it has expired).
func (s *System) Holders(chunk int) []int { return s.st.Holders(chunk) }

// Live returns the ids of chunks currently cached somewhere, sorted.
// Unlike the expiry bookkeeping, this works for TTL <= 0 (never expire)
// as well: liveness is tracked per placement, not derived from timers.
func (s *System) Live() []int {
	var out []int
	for id := range s.live {
		if len(s.st.Holders(id)) > 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Counts returns the current per-node cached-chunk counts.
func (s *System) Counts() []int { return s.st.Counts() }

// Clock returns the number of publications so far.
func (s *System) Clock() int { return s.clock }

// Published returns the total number of chunk ids ever assigned; ids in
// [0, Published()) are known even when their copies have since expired.
func (s *System) Published() int { return s.nextID }
