package demand

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Copy identifies one cached chunk copy: chunk Chunk stored on node Node.
type Copy struct {
	Node  int
	Chunk int
}

// AdaptReport records what one adaptation pass did.
type AdaptReport struct {
	// TopChunks lists the chunk ids the pass examined, in demand-score
	// order (highest first).
	TopChunks []int
	// Evicted lists the copies pressure-eviction removed.
	Evicted []Copy
	// Placed lists the copies the pass added (re-placements and
	// redundancy copies).
	Placed []Copy
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
// estimates, in five phases, each noted with what it scans:
//
//  1. Score every chunk by demand-weighted retrieval cost and pick the
//     top TopDelta, reading each requester's distance from the retrieval
//     table.
//  2. Pressure-evict the lowest-scoring copies until at least
//     CopyBudget slots are free network-wide. EvictCost scores are summed
//     from the table's (server, nearest, second-nearest) records; after
//     an eviction only the victim's chunk is re-summed and rescored.
//  3. Re-place any examined chunk that lost all copies with a full
//     fair-caching iteration (committed through the shared model).
//  4. Spend the remaining budget on redundancy copies: round-robin over
//     the examined chunks, each round adding the copy with the highest
//     demand-weighted hop saving net of a storage-fairness penalty. Each
//     attempt walks each requester's hop ball: the nodes closer to it
//     than its server.
//  5. Fill the capacity left idle, scanning every chunk per free slot.
//
// Every mutation flows through the cost model and through holdersAdd or
// holdersRemove, which keep the table current. The pass leaves the
// matrix to its readers (core.PlaceOneCtx, core.PlaceCtx and Verify),
// which sweep it once over the memoised BFS layers before they read it.
// The pass is deterministic for a fixed request history.
func (s *System) AdaptCtx(ctx context.Context) (*AdaptReport, error) {
	return s.AdaptTraceCtx(ctx, nil)
}

// AdaptTraceCtx is AdaptCtx with each of the five phases (score, evict,
// replace, redundancy, fill) recorded as child spans of parent. A nil
// (or dead) parent runs the untraced path at zero extra cost.
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

	pl := pool.New(0)
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

	s.statsMu.Lock()
	s.stats.Adaptations++
	s.stats.CopiesPlaced += int64(len(report.Placed))
	s.statsMu.Unlock()
	return report, nil
}

// topChunks ranks chunks by demand-weighted retrieval cost and returns
// the TopDelta highest, ties broken toward the lower chunk id.
func (s *System) topChunks(shares, weights []float64) []int {
	n := len(weights)
	scores := make([]chunkScore, s.chunks)
	for k := range scores {
		cost := 0.0
		for j, r := range s.records[k*n : (k+1)*n] {
			if weights[j] == 0 || j == s.producer {
				continue
			}
			cost += weights[j] * float64(r.best)
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
	top := make([]int, min(s.opts.TopDelta, len(scores)))
	for i := range top {
		top[i] = scores[i].chunk
	}
	return top
}

// sumEvictCost writes chunk k's EvictCost scores: for every copy, the
// demand-weighted retrieval-cost increase its removal would cause, as the
// requesters it serves fall back to their second-nearest server.
// Demand-free requesters and the producer add nothing. Each entry sums
// its terms in requester order, so a re-sum after an eviction gives the
// same floats as a full rebuild.
func (s *System) sumEvictCost(k int, shares, weights []float64) {
	n := len(weights)
	row := s.scores[k*n : (k+1)*n]
	for _, v := range s.holders[k] {
		row[v] = 0
	}
	for j, r := range s.records[k*n : (k+1)*n] {
		if r.server >= 0 && weights[j] != 0 && j != s.producer {
			row[r.server] += shares[k] * weights[j] * float64(r.second-r.best)
		}
	}
}

// pressureEvict frees capacity for the placement phases: while fewer
// than CopyBudget slots are free network-wide, the lowest-scoring copy
// is removed, ties broken toward the lower (node, chunk) pair. Under
// EvictCost the scores are first re-summed from the retrieval table with
// this pass's shares and weights. Each chunk keeps its lowest-scoring
// copy, and an eviction rescores only the victim's chunk, the one chunk
// whose scores can move: EvictCost re-sums that chunk's row alone, and
// LRU and LFU rows change only on their own chunk's stores and serves.
func (s *System) pressureEvict(shares, weights []float64, report *AdaptReport) error {
	free := 0
	for v := 0; v < s.st.NumNodes(); v++ {
		free += s.st.Free(v)
	}
	if s.opts.Eviction == EvictCost {
		clear(s.scores)
		for k := 0; k < s.chunks; k++ {
			s.sumEvictCost(k, shares, weights)
		}
	}
	lowest := make([]chunkVictim, s.chunks)
	for k := range lowest {
		lowest[k] = s.lowestCopy(k)
	}
	for free < s.opts.CopyBudget {
		k := -1
		for c, cv := range lowest {
			if cv.node >= 0 && (k < 0 || cv.score < lowest[k].score ||
				(cv.score == lowest[k].score && cv.node < lowest[k].node)) {
				k = c
			}
		}
		if k < 0 {
			break
		}
		victim := Copy{Node: lowest[k].node, Chunk: k}
		if !s.evict(victim.Node, victim.Chunk) {
			return fmt.Errorf("demand: evict lost track of copy (%d, %d)", victim.Node, victim.Chunk)
		}
		report.Evicted = append(report.Evicted, victim)
		free++
		if s.opts.Eviction == EvictCost {
			// The victim's chunk lost a copy: its survivors' marginal
			// costs changed (some requesters re-homed onto them).
			s.sumEvictCost(victim.Chunk, shares, weights)
		}
		lowest[k] = s.lowestCopy(k)
	}
	return nil
}

// chunkVictim is a chunk's lowest-scoring copy; node is -1 when the
// chunk has none.
type chunkVictim struct {
	node  int
	score float64
}

// lowestCopy returns chunk k's lowest-scoring copy; the holder list is
// sorted, so a tie keeps the lower node.
func (s *System) lowestCopy(k int) chunkVictim {
	best := chunkVictim{node: -1}
	row := s.scores[k*len(s.hop) : (k+1)*len(s.hop)]
	for _, v := range s.holders[k] {
		if best.node < 0 || row[v] < best.score {
			best = chunkVictim{node: v, score: row[v]}
		}
	}
	return best
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
			report.Placed = append(report.Placed, Copy{Node: v, Chunk: k})
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
	gain := s.gain
	// The sums are recomputed on each placement attempt; chunks cycle
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
			// Requester-major: every candidate receives its terms in
			// ascending requester order, as a per-candidate sum over
			// requesters would add them, so the floats are the same.
			clear(gain)
			for j, r := range s.records[k*n : (k+1)*n] {
				if weights[j] == 0 || j == s.producer {
					continue
				}
				s.ballGains(j, float64(r.best), weights[j], gain)
			}
			bestV, bestGain := -1, 0.0
			for v := 0; v < n; v++ {
				if v == s.producer || s.st.Free(v) <= 0 || s.st.Has(v, k) {
					continue
				}
				g := shares[k]*gain[v] - fairnessBias*s.st.FairnessCost(v)
				if g > bestGain || (g == bestGain && bestGain > 0 && v < bestV) {
					bestV, bestGain = v, g
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
			report.Placed = append(report.Placed, Copy{Node: bestV, Chunk: k})
			budget--
			progressed = true
		}
		if !progressed {
			break
		}
	}
}

// ballGains adds requester j's term w·save to gain[v] for every node v
// closer to j than its retrieval distance dNow: j's BFS visit order (j
// first) up to the first node at dNow hops. Only those nodes would save
// j a hop; the rest of the network adds nothing.
func (s *System) ballGains(j int, dNow, w float64, gain []float64) {
	radius := float64(s.opts.HitRadius)
	hop := s.hop[j]
	for _, v := range s.order[j] {
		dv := float64(hop[v])
		save := dNow - dv
		if save <= 0 {
			return // the visit order never comes closer again
		}
		// A copy that pulls a requester inside HitRadius turns misses
		// into hits — worth more than the same hop count saved far from
		// the radius.
		if dNow > radius && dv <= radius {
			save += hitBonus
		}
		gain[v] += w * save
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
				dist := float64(s.records[k*n+v].best)
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
			report.Placed = append(report.Placed, Copy{Node: v, Chunk: bestK})
		}
	}
}
