package demand

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/trace"
)

// AdaptReport records what one adaptation pass did.
type AdaptReport struct {
	// TopChunks lists the chunk ids the pass examined, in demand-score
	// order (highest first).
	TopChunks []int
	// Evicted lists the copies pressure-eviction removed.
	Evicted []cache.Copy
	// Placed lists the copies the pass added (re-placements and
	// redundancy copies).
	Placed []cache.Copy
	// Replaced lists chunks that had lost every copy and were re-placed
	// by a full fair-caching iteration.
	Replaced []int
}

// hitBonus is the extra hop-equivalent value of a copy placement that
// moves a requester from outside HitRadius to inside it (a miss turned
// into a hit). It is sized past the hop diameter of the evaluation
// topologies so that converting misses always outranks shaving hops off
// an already-hit path — duplicating a chunk that is already within
// radius buys no hit-rate at all.
const hitBonus = 24.0

// chunkScore is one chunk's estimated demand-weighted retrieval cost:
// share(k) · Σ_j w(j) · d(j, nearest holder or producer of k). High
// scores mark hot chunks that are far from their requesters — the
// mispositioned chunks the pass re-examines first.
type chunkScore struct {
	chunk int
	score float64
}

// AdaptCtx runs one adaptation pass against the current popularity
// estimates:
//
//  1. Score every chunk by demand-weighted retrieval cost and pick the
//     top TopDelta.
//  2. Pressure-evict the lowest-value copies (per the eviction strategy)
//     until at least CopyBudget slots are free network-wide.
//  3. Re-place any examined chunk that lost all copies with a full
//     fair-caching iteration (committed through the shared model).
//  4. Spend the remaining budget on redundancy copies: round-robin over
//     the examined chunks, each round adding the copy with the highest
//     demand-weighted hop saving net of a storage-fairness penalty.
//
// Every mutation flows through the cost model, whose next read sweeps the
// matrix once over the memoised BFS layers. The pass is deterministic for
// a fixed request history.
func (s *System) AdaptCtx(ctx context.Context) (*AdaptReport, error) {
	return s.AdaptTraceCtx(ctx, nil)
}

// AdaptTraceCtx is AdaptCtx with each of the five phases (score, evict,
// replace, redundancy, fill) plus the settling refresh recorded as child
// spans of parent. A nil (or dead) parent runs the untraced path at zero
// extra cost.
func (s *System) AdaptTraceCtx(ctx context.Context, parent *trace.Span) (*AdaptReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("demand: adapt: %w", err)
	}
	var dead trace.Span
	if parent == nil {
		parent = &dead
	}
	shares := s.tracker.Shares()
	weights := s.tracker.NodeWeights()

	report := &AdaptReport{}
	sp := parent.Child("adapt.score")
	top := s.topChunks(shares, weights)
	report.TopChunks = top
	sp.SetInt("topChunks", int64(len(top)))
	sp.End()

	sp = parent.Child("adapt.evict")
	if err := s.pressureEvict(shares, weights, report); err != nil {
		return nil, err
	}
	sp.SetInt("evicted", int64(len(report.Evicted)))
	sp.End()

	pl := s.newPool()
	defer pl.Close()
	sp = parent.Child("adapt.replace")
	if err := s.replaceLost(ctx, top, report, pl); err != nil {
		return nil, err
	}
	sp.SetInt("replaced", int64(len(report.Replaced)))
	sp.End()

	// The redundancy phase may fill every free slot: capacity left idle
	// serves nobody, so the budget only bounds displacement (evictions),
	// not placements into free space.
	budget := 0
	for v := 0; v < s.st.NumNodes(); v++ {
		budget += s.st.Free(v)
	}
	sp = parent.Child("adapt.redundancy")
	placedBefore := len(report.Placed)
	s.addRedundancy(top, shares, weights, budget, report)
	sp.SetInt("placed", int64(len(report.Placed)-placedBefore))
	sp.End()

	sp = parent.Child("adapt.fill")
	placedBefore = len(report.Placed)
	s.fillFree(shares, report)
	sp.SetInt("placed", int64(len(report.Placed)-placedBefore))
	sp.End()

	// Leave the matrix fresh: one refresh after the pass's mutations lets
	// the next request burst and Verify calls start from a clean model.
	sp = parent.Child("adapt.refresh")
	if err := s.model.RefreshCtx(ctx, pl); err != nil {
		return nil, err
	}
	sp.End()
	s.statsMu.Lock()
	s.stats.Adaptations++
	s.stats.CopiesPlaced += int64(len(report.Placed))
	s.statsMu.Unlock()
	return report, nil
}

// topChunks ranks chunks by demand-weighted retrieval cost and returns
// the TopDelta highest, ties broken toward the lower chunk id.
func (s *System) topChunks(shares, weights []float64) []int {
	scores := make([]chunkScore, s.chunks)
	for k := 0; k < s.chunks; k++ {
		cost := 0.0
		for j := range weights {
			if weights[j] == 0 || j == s.producer {
				continue
			}
			_, d := s.nearestServer(j, k)
			cost += weights[j] * float64(d)
		}
		scores[k] = chunkScore{chunk: k, score: shares[k] * cost}
	}
	// Descending score with ascending chunk id on ties: a strict total
	// order, so the adaptation set is deterministic across runs.
	slices.SortFunc(scores, func(a, b chunkScore) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		return cmp.Compare(a.chunk, b.chunk)
	})
	n := s.opts.TopDelta
	if n > len(scores) {
		n = len(scores)
	}
	top := make([]int, n)
	for i := 0; i < n; i++ {
		top[i] = scores[i].chunk
	}
	return top
}

// marginalEvictCost returns, for every current copy of chunk k, the
// demand-weighted retrieval-cost increase its removal would cause:
// requesters whose nearest server is that copy fall back to their
// second-nearest (other holders or the producer). It writes the values
// into the cost-aware oracle map.
func (s *System) marginalEvictCost(k int, shares, weights []float64, oracle map[int64]float64) {
	holders := s.holders[k]
	for _, v := range holders {
		oracle[copyID(v, k)] = 0
	}
	if len(holders) == 0 {
		return
	}
	for j := range weights {
		if weights[j] == 0 || j == s.producer {
			continue
		}
		// Nearest and second-nearest servers of chunk k from j, producer
		// included; ties resolve exactly as nearestServer's serving rule.
		best, bestD := s.producer, s.hop[j][s.producer]
		fromCache := false
		for _, v := range holders {
			if d := s.hop[j][v]; d < bestD || (d == bestD && !fromCache) {
				best, bestD, fromCache = v, d, true
			}
		}
		if !fromCache {
			continue // served by the producer; no copy is load-bearing here
		}
		secondD := s.hop[j][s.producer]
		for _, v := range holders {
			if v == best {
				continue
			}
			if d := s.hop[j][v]; d < secondD {
				secondD = d
			}
		}
		oracle[copyID(best, k)] += shares[k] * weights[j] * float64(secondD-bestD)
	}
}

// pressureEvict frees capacity for the placement phases: while fewer
// than CopyBudget slots are free network-wide, the eviction strategy's
// lowest-scoring copy is removed. With the built-in cost-aware strategy
// the score is the marginal retrieval-cost increase, recomputed for the
// victim's chunk after each removal.
func (s *System) pressureEvict(shares, weights []float64, report *AdaptReport) error {
	free := 0
	for v := 0; v < s.st.NumNodes(); v++ {
		free += s.st.Free(v)
	}
	var candidates []cache.Copy
	for k := 0; k < s.chunks; k++ {
		for _, v := range s.holders[k] {
			candidates = append(candidates, cache.Copy{Node: v, Chunk: k})
		}
	}
	if s.costOracle != nil {
		clear(s.costOracle)
		for k := 0; k < s.chunks; k++ {
			s.marginalEvictCost(k, shares, weights, s.costOracle)
		}
	}
	for free < s.opts.CopyBudget && len(candidates) > 0 {
		victim, ok := cache.SelectVictim(s.strat, candidates)
		if !ok {
			break
		}
		if !s.evict(victim.Node, victim.Chunk) {
			return fmt.Errorf("demand: evict lost track of copy (%d, %d)", victim.Node, victim.Chunk)
		}
		report.Evicted = append(report.Evicted, victim)
		free++
		for i, c := range candidates {
			if c == victim {
				candidates = append(candidates[:i], candidates[i+1:]...)
				break
			}
		}
		if s.costOracle != nil {
			// The victim's chunk lost a copy: its survivors' marginal
			// costs changed (some requesters re-homed onto them).
			s.marginalEvictCost(victim.Chunk, shares, weights, s.costOracle)
		}
	}
	return nil
}

// replaceLost runs one full fair-caching iteration for every examined
// chunk that no longer has any copy — the situation TTL expiry and
// aggressive eviction create, where only the producer serves the chunk.
func (s *System) replaceLost(ctx context.Context, top []int, report *AdaptReport, pl *pool.Pool) error {
	for _, k := range top {
		if len(s.holders[k]) > 0 {
			continue
		}
		res, err := core.PlaceOneCtx(ctx, s.model, s.producer, k, core.DefaultOptions(), pl)
		if err != nil {
			return fmt.Errorf("demand: re-place chunk %d: %w", k, err)
		}
		for _, v := range res.CacheNodes {
			s.holdersAdd(k, v)
			s.strat.OnStore(v, k, s.clock)
			report.Placed = append(report.Placed, cache.Copy{Node: v, Chunk: k})
		}
		report.Replaced = append(report.Replaced, k)
	}
	return nil
}

// addRedundancy spends the remaining copy budget on extra copies of the
// examined chunks, round-robin so one hot chunk cannot starve the rest:
// each round places the copy with the highest demand-weighted hop saving
//
//	share(k) · Σ_j w(j) · max(0, d_now(j,k) − hop(j,v))
//
// minus fairnessBias · FairnessCost(v), skipping full nodes, existing
// holders and the producer, and stopping when no candidate nets a
// positive gain. Ties break toward the lowest node id.
func (s *System) addRedundancy(top []int, shares, weights []float64, budget int, report *AdaptReport) {
	if budget <= 0 || len(top) == 0 {
		return
	}
	n := s.st.NumNodes()
	// d1[j] per chunk is recomputed on each placement attempt; chunks cycle
	// until the budget runs out or a full round places nothing.
	exhausted := make(map[int]bool, len(top))
	for budget > 0 && len(exhausted) < len(top) {
		progressed := false
		for _, k := range top {
			if budget <= 0 {
				break
			}
			if exhausted[k] {
				continue
			}
			d1 := make([]float64, n)
			for j := 0; j < n; j++ {
				_, d := s.nearestServer(j, k)
				d1[j] = float64(d)
			}
			bestV, bestGain := -1, 0.0
			for v := 0; v < n; v++ {
				if v == s.producer || s.st.Free(v) <= 0 || s.st.Has(v, k) {
					continue
				}
				gain := 0.0
				for j := 0; j < n; j++ {
					if weights[j] == 0 || j == s.producer {
						continue
					}
					dv := float64(s.hop[j][v])
					save := d1[j] - dv
					if save <= 0 {
						continue
					}
					// A copy that pulls a requester inside HitRadius turns
					// misses into hits — worth more than the same hop count
					// saved far from the radius.
					if d1[j] > float64(s.opts.HitRadius) && dv <= float64(s.opts.HitRadius) {
						save += hitBonus
					}
					gain += weights[j] * save
				}
				gain = shares[k]*gain - fairnessBias*s.st.FairnessCost(v)
				if gain > bestGain || (gain == bestGain && bestGain > 0 && v < bestV) {
					bestV, bestGain = v, gain
				}
			}
			if bestV < 0 || bestGain <= 0 {
				exhausted[k] = true
				continue
			}
			if err := s.commit(bestV, k); err != nil {
				// Full or duplicate despite the guards would be a holder
				// bookkeeping bug; mark the chunk done rather than spin.
				exhausted[k] = true
				continue
			}
			report.Placed = append(report.Placed, cache.Copy{Node: bestV, Chunk: k})
			budget--
			progressed = true
		}
		if !progressed {
			break
		}
	}
}

// fillFree spends any capacity the targeted phases left idle: each node
// with free slots takes the chunk its neighborhood most lacks, scored by
// share(k) · d(v, nearest holder or producer of k). Idle storage serves
// nobody, and because every node fills to capacity the caching load
// levels out — this phase is what keeps the adaptive policy's Gini near
// the static placement's while the targeted phases chase hit-rate.
func (s *System) fillFree(shares []float64, report *AdaptReport) {
	n := s.st.NumNodes()
	for v := 0; v < n; v++ {
		if v == s.producer {
			continue
		}
		for s.st.Free(v) > 0 {
			bestK, bestScore := -1, 0.0
			for k := 0; k < s.chunks; k++ {
				if s.st.Has(v, k) {
					continue
				}
				_, d := s.nearestServer(v, k)
				dist := float64(d)
				if dist > float64(s.opts.HitRadius) {
					dist += hitBonus // out-of-radius chunks are misses here
				}
				score := shares[k] * dist
				if score > bestScore {
					bestK, bestScore = k, score
				}
			}
			if bestK < 0 || bestScore <= 0 {
				break
			}
			if err := s.commit(v, bestK); err != nil {
				break
			}
			report.Placed = append(report.Placed, cache.Copy{Node: v, Chunk: bestK})
		}
	}
}
