package cache

import "math"

// Copy identifies one cached chunk copy: chunk Chunk stored on node Node.
type Copy struct {
	Node  int
	Chunk int
}

// EvictionStrategy ranks cached copies for demand-driven replacement
// (package demand), the alternative to the online system's TTL expiry.
// A strategy observes the cache stream through the On* hooks (now is
// the caller's logical clock, typically a request counter) and exposes
// a single Score: among a candidate set, the copy with the LOWEST score
// is evicted first. Scores may depend on external state (the cost-aware
// strategy consults a marginal retrieval-cost oracle), so they are only
// meaningful at selection time.
//
// Strategies are deterministic: equal scores are broken by (node, chunk)
// order in SelectVictim, and none of the built-ins draw randomness.
// They are not safe for concurrent use; callers serialize access exactly
// as they do for State.
type EvictionStrategy interface {
	// Name identifies the strategy in reports ("lru", "lfu", "cost").
	Name() string
	// OnStore records that a copy was placed.
	OnStore(node, chunk int, now int64)
	// OnAccess records that a request was served from a copy.
	OnAccess(node, chunk int, now int64)
	// OnEvict records that a copy was removed, releasing its bookkeeping.
	OnEvict(node, chunk int)
	// Score returns the eviction priority of a copy; lower evicts first.
	Score(node, chunk int) float64
}

// SelectVictim returns the candidate with the lowest strategy score,
// breaking ties toward the lowest (node, chunk) pair so selection is
// deterministic. ok is false when candidates is empty.
func SelectVictim(s EvictionStrategy, candidates []Copy) (victim Copy, ok bool) {
	best := math.Inf(1)
	for _, c := range candidates {
		score := s.Score(c.Node, c.Chunk)
		if !ok || score < best ||
			(score == best && (c.Node < victim.Node || (c.Node == victim.Node && c.Chunk < victim.Chunk))) {
			victim, best, ok = c, score, true
		}
	}
	return victim, ok
}

// copyKey packs a (node, chunk) pair into one map key.
func copyKey(node, chunk int) int64 { return int64(node)<<32 | int64(uint32(chunk)) }

// LRU evicts the least-recently-used copy: the score is the last store
// or access tick, so the copy idle longest goes first.
type LRU struct {
	last map[int64]int64
}

// NewLRU returns an empty least-recently-used strategy.
func NewLRU() *LRU { return &LRU{last: make(map[int64]int64)} }

// Name implements EvictionStrategy.
func (l *LRU) Name() string { return "lru" }

// OnStore implements EvictionStrategy.
func (l *LRU) OnStore(node, chunk int, now int64) { l.last[copyKey(node, chunk)] = now }

// OnAccess implements EvictionStrategy.
func (l *LRU) OnAccess(node, chunk int, now int64) { l.last[copyKey(node, chunk)] = now }

// OnEvict implements EvictionStrategy.
func (l *LRU) OnEvict(node, chunk int) { delete(l.last, copyKey(node, chunk)) }

// Score implements EvictionStrategy: older last-touch evicts first.
// Copies never observed score as never touched (evict first).
func (l *LRU) Score(node, chunk int) float64 { return float64(l.last[copyKey(node, chunk)]) }

// LFU evicts the least-frequently-used copy: the score is the access
// count since the copy was stored.
type LFU struct {
	freq map[int64]int64
}

// NewLFU returns an empty least-frequently-used strategy.
func NewLFU() *LFU { return &LFU{freq: make(map[int64]int64)} }

// Name implements EvictionStrategy.
func (l *LFU) Name() string { return "lfu" }

// OnStore implements EvictionStrategy.
func (l *LFU) OnStore(node, chunk int, now int64) { l.freq[copyKey(node, chunk)] = 0 }

// OnAccess implements EvictionStrategy.
func (l *LFU) OnAccess(node, chunk int, now int64) { l.freq[copyKey(node, chunk)]++ }

// OnEvict implements EvictionStrategy.
func (l *LFU) OnEvict(node, chunk int) { delete(l.freq, copyKey(node, chunk)) }

// Score implements EvictionStrategy: fewer accesses evict first.
func (l *LFU) Score(node, chunk int) float64 { return float64(l.freq[copyKey(node, chunk)]) }

// CostAware evicts the copy whose removal raises total retrieval cost
// least. It owns no state of its own; the cost oracle (typically the
// demand subsystem's demand-weighted marginal-cost estimate, backed by
// the cost model's current holder sets) is consulted at
// selection time.
type CostAware struct {
	cost func(node, chunk int) float64
}

// NewCostAware returns a cost-aware strategy over the given marginal
// cost oracle. A nil oracle scores every copy 0 (pure (node, chunk)
// tie-break order).
func NewCostAware(cost func(node, chunk int) float64) *CostAware {
	return &CostAware{cost: cost}
}

// Name implements EvictionStrategy.
func (c *CostAware) Name() string { return "cost" }

// OnStore implements EvictionStrategy.
func (c *CostAware) OnStore(node, chunk int, now int64) {}

// OnAccess implements EvictionStrategy.
func (c *CostAware) OnAccess(node, chunk int, now int64) {}

// OnEvict implements EvictionStrategy.
func (c *CostAware) OnEvict(node, chunk int) {}

// Score implements EvictionStrategy: the marginal retrieval-cost
// increase of removing the copy; the cheapest removal evicts first.
func (c *CostAware) Score(node, chunk int) float64 {
	if c.cost == nil {
		return 0
	}
	return c.cost(node, chunk)
}
