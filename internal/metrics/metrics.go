// Package metrics implements the evaluation measures of the paper's
// Sec. V: the Gini coefficient of per-node caching load, p-percentile
// fairness, chunk-distribution comparisons (Fig. 1), and the uniform
// contention-cost evaluation (accessing + dissemination phases) applied
// identically to every algorithm's placement.
package metrics

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/steiner"
)

// Gini returns the Gini coefficient of the per-node chunk counts t_i:
//
//	G = Σ_i Σ_j |t_i − t_j| / (2·N·Σ_j t_j)
//
// 0 means perfectly even caching load, values toward 1 mean a few nodes
// carry everything. An all-zero distribution yields 0.
func Gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := append([]int(nil), counts...)
	slices.Sort(sorted)
	var (
		sum      int64
		weighted int64
	)
	for i, t := range sorted {
		sum += int64(t)
		// Σ_i Σ_j |t_i − t_j| = 2·Σ_i (2i − n + 1)·t_(i) for sorted t.
		weighted += int64(2*i-n+1) * int64(t)
	}
	if sum == 0 {
		return 0
	}
	return float64(weighted) / (float64(n) * float64(sum))
}

// PercentileFairness returns the paper's p-percentile fairness: the
// fraction of nodes needed to cache p percent of the total data copies,
// filling from the most-loaded node down. Ideally (all loads equal) it is
// p%. Smaller values mean less fair. p is in (0, 100].
func PercentileFairness(counts []int, p float64) (float64, error) {
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %g out of (0,100]", p)
	}
	if len(counts) == 0 {
		return 0, errors.New("metrics: empty counts")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0, errors.New("metrics: no data cached")
	}
	sorted := append([]int(nil), counts...)
	slices.SortFunc(sorted, func(a, b int) int { return cmp.Compare(b, a) }) // descending
	target := p / 100 * float64(total)
	cum := 0
	for k, c := range sorted {
		cum += c
		if float64(cum) >= target-1e-9 {
			return float64(k+1) / float64(len(counts)), nil
		}
	}
	return 1, nil
}

// StorageCurve returns, for k = 1..N, the cumulative fraction of all data
// copies held by the k most-loaded nodes — the curve behind Fig. 6
// ("number of nodes needed to store a certain ratio of all data").
func StorageCurve(counts []int) []float64 {
	sorted := append([]int(nil), counts...)
	slices.SortFunc(sorted, func(a, b int) int { return cmp.Compare(b, a) }) // descending
	total := 0
	for _, c := range sorted {
		total += c
	}
	out := make([]float64, len(sorted))
	if total == 0 {
		return out
	}
	cum := 0
	for i, c := range sorted {
		cum += c
		out[i] = float64(cum) / float64(total)
	}
	return out
}

// DistributionDiff returns the per-node difference in stored-chunk counts
// between a placement and a reference (typically the optimal solution) —
// the quantity visualised in Fig. 1.
func DistributionDiff(counts, reference []int) ([]int, error) {
	if len(counts) != len(reference) {
		return nil, fmt.Errorf("metrics: length mismatch %d vs %d", len(counts), len(reference))
	}
	out := make([]int, len(counts))
	for i := range counts {
		out[i] = counts[i] - reference[i]
	}
	return out, nil
}

// ChunkEval is the contention cost attributed to one chunk under the
// uniform evaluation.
type ChunkEval struct {
	// Access is Σ_j c(holder(j), j): every node fetches the chunk from
	// the copy its accessing strategy selects (Sec. V-A/B).
	Access float64
	// Dissemination is the cost of a Steiner tree connecting the chunk's
	// holders with the producer.
	Dissemination float64
	// AccessDelay is the estimated accessing latency in microseconds
	// under the linearised 802.11 DCF model of Sec. III-C:
	// Σ_fetches (DIFS·pathLen + T_d·pathContention).
	AccessDelay float64
}

// Total returns the chunk's evaluated contention cost.
func (c ChunkEval) Total() float64 { return c.Access + c.Dissemination }

// Eval is the uniform contention-cost evaluation of a complete placement.
type Eval struct {
	// PerChunk holds per-chunk access/dissemination costs (Fig. 9).
	PerChunk []ChunkEval
	// Access and Dissemination are the summed phase costs (Fig. 2).
	Access        float64
	Dissemination float64
	// AccessDelay is the summed estimated accessing latency (µs).
	AccessDelay float64
}

// Total returns the summed evaluated contention cost of both phases.
func (e Eval) Total() float64 { return e.Access + e.Dissemination }

// AccessStrategy selects how a node picks the copy it fetches during the
// accessing phase — each algorithm produces its own accessing strategy
// (Sec. V-B), and the evaluation charges real (final-state) contention on
// those choices.
type AccessStrategy int

const (
	// AccessHopNearest fetches from the hop-nearest copy, ties broken
	// toward the cheaper one ("find the nearest copy of a chunk and go
	// through the shortest hop path"). This is the strategy of devices
	// without contention awareness — the Hop-Count baseline.
	AccessHopNearest AccessStrategy = iota + 1
	// AccessTopologyNearest fetches from the copy with the smallest
	// topology contention cost (degree-based, ignoring cache load) — the
	// Contention baseline's own metric.
	AccessTopologyNearest
	// AccessCostNearest fetches from the copy with the smallest true
	// (load-aware) contention cost — the fair-caching algorithms, which
	// track cache load by construction.
	AccessCostNearest
)

// Evaluate computes the paper's evaluation metric for any algorithm's
// placement, replaying both phases over the placement order:
//
//   - Dissemination phase: chunks are pushed out one at a time. Chunk n's
//     Steiner tree (over its holders and the producer) is charged at the
//     cache state *before* chunk n is stored — earlier chunks were
//     disseminated through a less loaded network.
//   - Accessing phase: with all chunks placed, every node fetches every
//     chunk from the copy selected by the given AccessStrategy (or from
//     the producer) and is charged the final state's true contention cost
//     along that path. Contention-oblivious strategies thus pay for the
//     hotspots their placements create.
//
// base is the pre-placement cache state (it is cloned, not mutated); pass
// a fresh state unless modelling pre-existing load. This uniform replay
// makes algorithm comparisons apples-to-apples regardless of each
// algorithm's internal cost bookkeeping.
func Evaluate(g *graph.Graph, base *cache.State, producer int, holders [][]int, strategy AccessStrategy) (*Eval, error) {
	if g.NumNodes() != base.NumNodes() {
		return nil, fmt.Errorf("metrics: graph has %d nodes, state %d", g.NumNodes(), base.NumNodes())
	}
	if producer < 0 || producer >= g.NumNodes() {
		return nil, fmt.Errorf("metrics: producer %d out of range", producer)
	}
	st := base.Clone()
	ev := &Eval{PerChunk: make([]ChunkEval, len(holders))}

	// Dissemination phase: replay placements in chunk order.
	for n, hs := range holders {
		if len(hs) == 0 {
			continue
		}
		sources := append(append([]int(nil), hs...), producer)
		tree, err := steiner.MSTApprox(g, contention.EdgeCostFunc(g, st), sources)
		if err != nil {
			return nil, fmt.Errorf("metrics: dissemination tree for chunk %d: %w", n, err)
		}
		ev.PerChunk[n].Dissemination = tree.Cost
		ev.Dissemination += tree.Cost
		for _, i := range hs {
			if st.Has(i, n) {
				continue
			}
			if err := st.Store(i, n); err != nil {
				return nil, fmt.Errorf("metrics: replay chunk %d on node %d: %w", n, i, err)
			}
		}
	}

	// Accessing phase: strategy-selected copy, charged true final-state
	// contention; the DCF delay model converts the same fetches into an
	// access-latency estimate.
	costs := contention.ComputeCosts(g, st)
	selector, err := newSelector(g, base, costs, strategy)
	if err != nil {
		return nil, err
	}
	dcf := contention.DefaultDCF()
	for n, hs := range holders {
		sources := append(append([]int(nil), hs...), producer)
		access, delay := 0.0, 0.0
		for j := 0; j < g.NumNodes(); j++ {
			if j == producer {
				continue
			}
			src := selector.pick(sources, j)
			if src < 0 || math.IsInf(costs.At(src, j), 1) {
				return nil, fmt.Errorf("metrics: node %d cannot reach chunk %d", j, n)
			}
			access += costs.At(src, j)
			if src != j {
				// DIFS per hop node plus T_d times the contention
				// weight sum — the linearised d(k,c) of Sec. III-C.
				delay += dcf.DIFS*float64(len(costs.Path(src, j))) + dcf.TData*costs.At(src, j)
			}
		}
		ev.PerChunk[n].Access = access
		ev.PerChunk[n].AccessDelay = delay
		ev.Access += access
		ev.AccessDelay += delay
	}
	return ev, nil
}

// EvaluateModel is Evaluate replayed on the cost model instead of on
// private from-scratch code. base must be a model of the topology over an
// empty cache state with its matrices built. The replay never mutates it
// (only its synchronised fork counter and hop-matrix memo move), so a
// long-lived base shared by concurrent solves is safe to pass. The replay
// forks base over a clone of st and then, per chunk, charges the
// dissemination tree at the fork's current state and commits the chunk's
// holders through it. The tree is built with steiner.MSTApproxScratchCtx
// under Model.EdgeCostFunc. The access term reads the fork's refreshed
// final matrix, and the DCF delay takes a path's node count as its hop
// distance plus one, since every path is min-hop. The strategy metrics
// come from base: its matrix is the empty-state topology metric of
// AccessTopologyNearest, and its memoised hop matrix is
// AccessHopNearest's metric. The model's byte-identity invariant makes
// every field of the result equal Evaluate's bit for bit, errors
// included.
//
// trees, when non-nil, holds every chunk's dissemination tree cost as the
// placing solve built it, and the replay charges those costs instead of
// building the trees. Pass it only when each tree was built by the
// replay's construction, at the replay's state before that chunk, over
// that chunk's holders and the producer: then it is the tree the replay
// would build.
func EvaluateModel(ctx context.Context, base *costmodel.Model, st *cache.State, producer int, holders [][]int, strategy AccessStrategy, trees []float64) (*Eval, error) {
	g := base.Graph()
	if g.NumNodes() != st.NumNodes() {
		return nil, fmt.Errorf("metrics: graph has %d nodes, state %d", g.NumNodes(), st.NumNodes())
	}
	if producer < 0 || producer >= g.NumNodes() {
		return nil, fmt.Errorf("metrics: producer %d out of range", producer)
	}
	m, err := base.ForkCtx(ctx, nil, st.Clone(), costmodel.Options{})
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	ev := &Eval{PerChunk: make([]ChunkEval, len(holders))}

	// Dissemination phase: replay placements in chunk order.
	var (
		scr     steiner.Scratch
		sources []int
	)
	edgeCost := m.EdgeCostFunc()
	for n, hs := range holders {
		if len(hs) == 0 {
			continue
		}
		sources = append(append(sources[:0], hs...), producer)
		var cost float64
		if trees != nil {
			cost = trees[n]
		} else {
			tree, err := steiner.MSTApproxScratchCtx(ctx, g, edgeCost, sources, nil, &scr)
			if err != nil {
				return nil, fmt.Errorf("metrics: dissemination tree for chunk %d: %w", n, err)
			}
			cost = tree.Cost
		}
		ev.PerChunk[n].Dissemination = cost
		ev.Dissemination += cost
		for _, i := range hs {
			if m.State().Has(i, n) {
				continue
			}
			if err := m.Commit(i, n); err != nil {
				return nil, fmt.Errorf("metrics: replay chunk %d on node %d: %w", n, i, err)
			}
		}
	}

	// Accessing phase, as in Evaluate.
	costs, err := m.CostsCtx(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	final := costs.Rows()
	sel := &selector{metric: final}
	switch strategy {
	case AccessHopNearest:
		hops, err := base.HopMatrixCtx(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		sel.metric, sel.tiebreak = hops, final
	case AccessTopologyNearest:
		empty, err := base.CostsCtx(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		sel.metric, sel.tiebreak = empty.Rows(), final
	case AccessCostNearest:
	default:
		return nil, fmt.Errorf("metrics: unknown access strategy %d", int(strategy))
	}
	dcf := contention.DefaultDCF()
	pc := m.PathCache()
	for n, hs := range holders {
		sources = append(append(sources[:0], hs...), producer)
		access, delay := 0.0, 0.0
		for j := 0; j < g.NumNodes(); j++ {
			if j == producer {
				continue
			}
			src := sel.pick(sources, j)
			if src < 0 || math.IsInf(costs.At(src, j), 1) {
				return nil, fmt.Errorf("metrics: node %d cannot reach chunk %d", j, n)
			}
			access += costs.At(src, j)
			if src != j {
				delay += dcf.DIFS*float64(pc.HopDistances(src)[j]+1) + dcf.TData*costs.At(src, j)
			}
		}
		ev.PerChunk[n].Access = access
		ev.PerChunk[n].AccessDelay = delay
		ev.Access += access
		ev.AccessDelay += delay
	}
	return ev, nil
}

// EvaluateFresh is Evaluate starting from an empty uniform-capacity state,
// the setting of the paper's simulations (capacity 5, empty caches).
func EvaluateFresh(g *graph.Graph, capacity, producer int, holders [][]int, strategy AccessStrategy) (*Eval, error) {
	return Evaluate(g, cache.NewState(g.NumNodes(), capacity), producer, holders, strategy)
}

// selector implements the per-strategy copy choice.
type selector struct {
	// metric[i][j] is the strategy's own distance estimate; the true
	// charge always comes from the final-state cost matrix.
	metric [][]float64
	// tiebreak, when non-nil, refines equal-metric choices.
	tiebreak [][]float64
}

func newSelector(g *graph.Graph, base *cache.State, final *contention.Costs, strategy AccessStrategy) (*selector, error) {
	switch strategy {
	case AccessHopNearest:
		hops := g.AllPairsHops()
		metric := make([][]float64, len(hops))
		for i, row := range hops {
			metric[i] = make([]float64, len(row))
			for j, h := range row {
				if h == graph.Unreachable {
					metric[i][j] = math.Inf(1)
				} else {
					metric[i][j] = float64(h)
				}
			}
		}
		return &selector{metric: metric, tiebreak: final.Rows()}, nil
	case AccessTopologyNearest:
		// Degree-based contention with empty caches: the Contention
		// baseline's load-oblivious estimate.
		empty := cache.NewState(g.NumNodes(), 1)
		return &selector{metric: contention.ComputeCosts(g, empty).Rows(), tiebreak: final.Rows()}, nil
	case AccessCostNearest:
		return &selector{metric: final.Rows()}, nil
	default:
		return nil, fmt.Errorf("metrics: unknown access strategy %d", int(strategy))
	}
}

// pick returns the source in sources minimising the strategy metric to j,
// refining ties with the tiebreak matrix, then the smaller node id.
func (s *selector) pick(sources []int, j int) int {
	best := -1
	bestMetric, bestTie := math.Inf(1), math.Inf(1)
	for _, i := range sources {
		m := s.metric[i][j]
		tie := m
		if s.tiebreak != nil {
			tie = s.tiebreak[i][j]
		}
		better := m < bestMetric-1e-12 ||
			(m < bestMetric+1e-12 && tie < bestTie-1e-12) ||
			(m < bestMetric+1e-12 && tie < bestTie+1e-12 && best >= 0 && i < best)
		if better {
			best, bestMetric, bestTie = i, m, tie
		}
	}
	return best
}

// HoldersFromState reconstructs per-chunk holder lists for chunk ids
// 0..chunks-1 from a cache state.
func HoldersFromState(st *cache.State, chunks int) [][]int {
	out := make([][]int, chunks)
	for n := 0; n < chunks; n++ {
		out[n] = st.Holders(n)
	}
	return out
}
