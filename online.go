package faircache

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/pool"
)

// Publication records one online chunk placement.
type Publication struct {
	// Chunk is the published chunk's id (assigned sequentially).
	Chunk int
	// Time is the publication index, starting at 1.
	Time int
	// CacheNodes lists the nodes now caching the chunk.
	CacheNodes []int
	// Expired lists chunk ids whose lifetime ended before this
	// publication (their copies were evicted — cache replacement).
	Expired []int
}

// OnlineSystem is the online variant of the fair-caching algorithm (the
// paper's future-work direction, Sec. VI): chunks are published over
// time, stale chunks expire and are evicted, and each arrival is placed by
// one fair-caching iteration against the live storage state. Because
// eviction lowers the fairness cost of loaded nodes, storage is recycled
// fairly over unbounded horizons.
//
// One cost model lives across publications: arrivals and TTL evictions
// mutate it through Commit and Evict, so each arrival pays one matrix
// sweep over the memoised BFS layers instead of a cold model build.
type OnlineSystem struct {
	producer int
	// ttl is a chunk's lifetime in publications; <= 0 never expires.
	ttl   int
	opts  Options
	model *costmodel.Model

	clock int
	// live holds the ids of committed, unexpired chunks in publication
	// order. Chunk c is published at time c+1 and expires at c+1+ttl, so
	// ids expire from the front.
	live []int
}

// NewOnline builds an online system on a topology. Each publication is
// placed under the options Solve honours for AlgorithmApprox — capacities,
// battery levels, weights, dual steps, GreedyConFL and ChunkStarted;
// ImproveSteiner (a publication keeps no tree), Partition and Explain do
// not apply. Like a solve, a publication sizes its worker pool from
// GOMAXPROCS. ChunkTTL sets the chunk lifetime (see Options.ChunkTTL). A
// nil or disconnected topology is an ErrBadArgument.
func NewOnline(t *Topology, producer int, opts *Options) (*OnlineSystem, error) {
	if opts != nil && opts.Capacity < 0 {
		return nil, fmt.Errorf("%w: negative capacity %d", ErrBadArgument, opts.Capacity)
	}
	if err := checkTopology(t); err != nil {
		return nil, err
	}
	if n := t.NumNodes(); producer < 0 || producer >= n {
		return nil, fmt.Errorf("%w: producer %d out of range [0,%d)", ErrBadArgument, producer, n)
	}
	o := opts.withDefaults()
	sys := &OnlineSystem{producer: producer, ttl: o.Capacity, opts: o}
	if o.ChunkTTL != 0 {
		sys.ttl = o.ChunkTTL
	}
	if err := sys.bind(t, newState(t, nil, o)); err != nil {
		return nil, err
	}
	return sys, nil
}

// bind points later publications at topology t over cache state st with a
// fresh cost model (and so a fresh path cache). The caller has checked t
// with checkTopology. On error the system is unchanged.
func (o *OnlineSystem) bind(t *Topology, st *cache.State) error {
	model, err := costmodel.New(t.g, nil, st, modelOptions(o.opts))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgument, err)
	}
	o.model = model
	return nil
}

// Publish places the next chunk, evicting expired ones first. It is
// PublishCtx with a background context.
func (o *OnlineSystem) Publish() (*Publication, error) {
	return o.PublishCtx(context.Background())
}

// PublishCtx places the next chunk, evicting expired ones first. A
// pre-cancelled context leaves the system untouched. Otherwise the context
// governs the placement iteration: cancellation or deadline expiry stops
// it mid-solve and surfaces as an error satisfying errors.Is with
// ctx.Err(). A cancelled publication is not committed, but the clock tick,
// its chunk id and any TTL evictions it triggered stand — time passed even
// though the placement was abandoned.
func (o *OnlineSystem) PublishCtx(ctx context.Context) (*Publication, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("faircache: publish: %w", err)
	}
	o.clock++
	pub := &Publication{Chunk: o.clock - 1, Time: o.clock}

	// Cache replacement: evict the chunks whose lifetime has passed.
	if o.ttl > 0 {
		n := 0
		for n < len(o.live) && o.live[n]+1+o.ttl <= o.clock {
			n++
		}
		if n > 0 {
			pub.Expired = slices.Clone(o.live[:n])
			o.live = o.live[n:]
		}
		for _, id := range pub.Expired {
			for _, holder := range o.Holders(id) {
				o.model.Evict(holder, id)
			}
		}
	}

	pl := pool.New(0)
	defer pl.Close()
	res, err := core.PlaceOneCtx(ctx, o.model, o.producer, pub.Chunk, coreOptions(o.opts), pl)
	if err != nil {
		return nil, fmt.Errorf("faircache: publish chunk %d: %w", pub.Chunk, err)
	}
	pub.CacheNodes = append([]int(nil), res.CacheNodes...)
	o.live = append(o.live, pub.Chunk)
	return pub, nil
}

// Holders returns the nodes currently caching the given chunk (empty once
// it has expired).
func (o *OnlineSystem) Holders(chunk int) []int { return o.model.State().Holders(chunk) }

// OnlineSnapshot is an immutable copy of an online system's committed
// state, taken between publications. It is the export hook a serving
// layer needs: answer reads from the snapshot while the next mutation is
// prepared against the live system.
type OnlineSnapshot struct {
	// Clock is the number of publications so far.
	Clock int
	// Published is the total number of chunk ids ever assigned; ids in
	// [0, Published) are known to the system even if since expired.
	Published int
	// Holders maps each live chunk id to the nodes caching it.
	Holders map[int][]int
	// Counts is the per-node cached-chunk count.
	Counts []int
}

// Snapshot returns a deep-copied snapshot of the current state. The
// caller may retain and read it concurrently with later publications.
func (o *OnlineSystem) Snapshot() *OnlineSnapshot {
	live := o.Live()
	holders := make(map[int][]int, len(live))
	for _, chunk := range live {
		holders[chunk] = o.Holders(chunk)
	}
	return &OnlineSnapshot{
		Clock:     o.clock,
		Published: o.clock,
		Holders:   holders,
		Counts:    o.Counts(),
	}
}

// Live returns the ids of chunks currently cached somewhere, sorted.
func (o *OnlineSystem) Live() []int {
	var out []int
	for _, id := range o.live {
		if len(o.Holders(id)) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// Counts returns the current per-node cached-chunk counts.
func (o *OnlineSystem) Counts() []int { return o.model.State().Counts() }

// Gini returns the Gini coefficient of the current caching load.
func (o *OnlineSystem) Gini() float64 { return metrics.Gini(o.Counts()) }

// Clock returns the number of publications so far.
func (o *OnlineSystem) Clock() int { return o.clock }

// SetTopology swaps the network topology (device mobility): subsequent
// publications place against the new connectivity while cached chunks and
// their expiry clocks carry over. The node count must stay the same, and
// a rejected topology leaves the system unchanged. Every cached path is
// invalid after a move, so a fresh cost model with its own path cache is
// bound over the live cache state.
func (o *OnlineSystem) SetTopology(t *Topology) error {
	if err := checkTopology(t); err != nil {
		return err
	}
	if got, want := t.NumNodes(), o.model.State().NumNodes(); got != want {
		return fmt.Errorf("%w: topology has %d nodes, system has %d", ErrBadArgument, got, want)
	}
	return o.bind(t, o.model.State())
}
