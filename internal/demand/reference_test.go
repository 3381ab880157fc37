package demand

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/sim"
)

// This file keeps the adaptation pass's original scans as the reference
// the production pass must reproduce bit for bit: the chunk ranking read
// N nearest-server scans per chunk, the eviction oracle re-derived every
// requester's nearest and second-nearest copy after each eviction into a
// map, and the redundancy greedy priced every candidate as an N-term sum
// over requesters. The bodies are the pre-rewrite code, renamed.

func refCopyID(node, chunk int) int64 { return int64(node)<<32 | int64(uint32(chunk)) }

func (s *System) refTopChunks(shares, weights []float64) []int {
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

func (s *System) refMarginalEvictCost(k int, shares, weights []float64, oracle map[int64]float64) {
	holders := s.holders[k]
	for _, v := range holders {
		oracle[refCopyID(v, k)] = 0
	}
	if len(holders) == 0 {
		return
	}
	for j := range weights {
		if weights[j] == 0 || j == s.producer {
			continue
		}
		best, bestD := s.producer, s.hop[j][s.producer]
		fromCache := false
		for _, v := range holders {
			if d := s.hop[j][v]; d < bestD || (d == bestD && !fromCache) {
				best, bestD, fromCache = v, d, true
			}
		}
		if !fromCache {
			continue
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
		oracle[refCopyID(best, k)] += shares[k] * weights[j] * float64(secondD-bestD)
	}
}

func (s *System) refPressureEvict(shares, weights []float64, report *AdaptReport, oracle map[int64]float64) error {
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
	if oracle != nil {
		clear(oracle)
		for k := 0; k < s.chunks; k++ {
			s.refMarginalEvictCost(k, shares, weights, oracle)
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
		if oracle != nil {
			s.refMarginalEvictCost(victim.Chunk, shares, weights, oracle)
		}
	}
	return nil
}

func (s *System) refAddRedundancy(top []int, shares, weights []float64, budget int, report *AdaptReport) {
	if budget <= 0 || len(top) == 0 {
		return
	}
	n := s.st.NumNodes()
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

// refAdapt is AdaptCtx's phase sequence over the reference scans, with
// oracle (nil for LRU and LFU) as the cost-aware strategy's map. It also
// returns how many copies the redundancy phase placed.
func (s *System) refAdapt(ctx context.Context, oracle map[int64]float64) (*AdaptReport, int, error) {
	shares := s.tracker.Shares()
	weights := s.tracker.NodeWeights()
	report := &AdaptReport{}
	top := s.refTopChunks(shares, weights)
	report.TopChunks = top
	if err := s.refPressureEvict(shares, weights, report, oracle); err != nil {
		return nil, 0, err
	}
	pl := s.newPool()
	defer pl.Close()
	if err := s.replaceLost(ctx, top, report, pl); err != nil {
		return nil, 0, err
	}
	budget := 0
	for v := 0; v < s.st.NumNodes(); v++ {
		budget += s.st.Free(v)
	}
	placedBefore := len(report.Placed)
	s.refAddRedundancy(top, shares, weights, budget, report)
	redundancy := len(report.Placed) - placedBefore
	s.fillFree(shares, report)
	if err := s.model.RefreshCtx(ctx, pl); err != nil {
		return nil, 0, err
	}
	s.statsMu.Lock()
	s.stats.Adaptations++
	s.stats.CopiesPlaced += int64(len(report.Placed))
	s.statsMu.Unlock()
	return report, redundancy, nil
}

// refInstance is one configuration of the differential test.
type refInstance struct {
	name     string
	g        *graph.Graph
	producer int
	capacity int
	chunks   int
	opts     Options
	strategy string // "cost", "lru" or "lfu"
	seed     int64
	// passes adaptation passes, each after period request events.
	passes, period int
}

func newStrategy(name string) cache.EvictionStrategy {
	switch name {
	case "lru":
		return cache.NewLRU()
	case "lfu":
		return cache.NewLFU()
	}
	return nil
}

// refTally counts what the differential passes exercised.
type refTally struct {
	passes, bigEvictions, redundancy int
}

// runReference drives a production system and a reference twin, built
// alike, through one request stream and compares them after every pass.
func runReference(t *testing.T, in refInstance, tally *refTally) {
	t.Helper()
	ctx := context.Background()
	build := func() *System {
		opts := in.opts
		opts.Eviction = newStrategy(in.strategy)
		s, err := New(newModel(t, in.g, in.capacity), in.producer, in.chunks, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	prod, ref := build(), build()
	var oracle map[int64]float64
	if in.strategy == "cost" {
		oracle = make(map[int64]float64)
		ref.strat = cache.NewCostAware(func(node, chunk int) float64 { return oracle[refCopyID(node, chunk)] })
	}
	if err := prod.SeedCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ref.SeedCtx(ctx); err != nil {
		t.Fatal(err)
	}
	tr, err := sim.NewTrace(sim.TraceSpec{
		Nodes: in.g.NumNodes(), Chunks: in.chunks, Seed: in.seed, ZipfS: 0.9,
		DriftEvery: in.passes * in.period / 4, Exclude: in.producer,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := pool.New(1)
	defer pl.Close()
	for pass := 0; pass < in.passes; pass++ {
		for i := 0; i < in.period; i++ {
			r := tr.Next()
			for _, s := range []*System{prod, ref} {
				if _, _, err := s.Observe(r.Node, r.Chunk); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := prod.AdaptCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, redundancy, err := ref.refAdapt(ctx, oracle)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s pass %d: report\n got %+v\nwant %+v", in.name, pass, got, want)
		}
		if !reflect.DeepEqual(prod.Placement(), ref.Placement()) {
			t.Fatalf("%s pass %d: placements differ", in.name, pass)
		}
		if a, b := prod.Stats(), ref.Stats(); a != b {
			t.Fatalf("%s pass %d: stats %+v, reference %+v", in.name, pass, a, b)
		}
		if oracle != nil {
			for v := 0; v < in.g.NumNodes(); v++ {
				for k := 0; k < in.chunks; k++ {
					a, b := prod.strat.Score(v, k), ref.strat.Score(v, k)
					if math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s pass %d: oracle(%d, %d) = %v, reference %v", in.name, pass, v, k, a, b)
					}
				}
			}
		}
		if err := prod.Model().Verify(ctx, pl); err != nil {
			t.Fatalf("%s pass %d: %v", in.name, pass, err)
		}
		tally.passes++
		if len(got.Evicted) >= 50 {
			tally.bigEvictions++
		}
		if redundancy > 0 {
			tally.redundancy++
		}
	}
}

// TestAdaptMatchesReference pins every adaptation pass to the reference
// scans: reports, placements, stats and the eviction oracle must match
// bit for bit, and the cost model must pass Verify, on the daemon's
// settings and on randomized grids, random geometric and clustered
// graphs under each eviction strategy.
func TestAdaptMatchesReference(t *testing.T) {
	// The full set runs in tier-1 tests; -short and -race run a reduced
	// one, with the daemon's settings under the cost-aware strategy only
	// and proportionally lower floors on what it must exercise.
	strategies, daemonPasses, instances, minBig, minRedundancy := []string{"cost", "lru", "lfu"}, 12, 60, 150, 220
	if testing.Short() || raceEnabled {
		strategies, daemonPasses, instances, minBig, minRedundancy = strategies[:1], 3, 8, 14, 25
	}
	var tally refTally
	daemon := graph.NewGrid(15, 15)
	for _, strategy := range strategies {
		runReference(t, refInstance{
			name: "daemon/" + strategy, g: daemon, producer: graph.CentralNode(daemon),
			capacity: 3, chunks: 64, strategy: strategy, seed: 7,
			opts:   Options{TopDelta: 24, CopyBudget: 150, HitRadius: 2},
			passes: daemonPasses, period: 4000,
		}, &tally)
	}

	rng := rand.New(rand.NewSource(20))
	for i := 0; i < instances; i++ {
		var g *graph.Graph
		kind := []string{"grid", "random", "clustered"}[i%3]
		switch kind {
		case "grid":
			g = graph.NewGrid(3+rng.Intn(10), 3+rng.Intn(10))
		case "random":
			n := 9 + rng.Intn(136)
			var err error
			g, _, err = graph.RandomGeometric{N: n, Radius: graph.DefaultRadius(n)}.Generate(rng)
			if err != nil {
				t.Fatal(err)
			}
		case "clustered":
			var err error
			g, err = graph.Clustered{Clusters: 2 + rng.Intn(4), Size: 4 + rng.Intn(20), IntraProb: 0.3 + 0.5*rng.Float64(), Bridges: 1 + rng.Intn(3)}.Generate(rng)
			if err != nil {
				t.Fatal(err)
			}
		}
		in := refInstance{
			g:        g,
			producer: rng.Intn(g.NumNodes()),
			capacity: 1 + rng.Intn(5),
			chunks:   1 + rng.Intn(80),
			strategy: []string{"cost", "lru", "lfu"}[rng.Intn(3)],
			seed:     rng.Int63(),
			opts: Options{
				TopDelta:   1 + rng.Intn(30),
				CopyBudget: rng.Intn(201),
				HitRadius:  rng.Intn(5),
			},
			passes: 3 + rng.Intn(4),
			period: 200 + rng.Intn(2000),
		}
		in.name = fmt.Sprintf("%d/%s-%d/%s/cap%d/chunks%d/%+v", i, kind, g.NumNodes(), in.strategy, in.capacity, in.chunks, in.opts)
		runReference(t, in, &tally)
	}
	t.Logf("%d passes: %d evicted >= 50 copies, %d placed redundancy copies", tally.passes, tally.bigEvictions, tally.redundancy)
	if tally.bigEvictions < minBig || tally.redundancy < minRedundancy {
		t.Fatalf("generator went slack: %d passes evicted >= 50 copies (want >= %d), %d placed redundancy copies (want >= %d)",
			tally.bigEvictions, minBig, tally.redundancy, minRedundancy)
	}
}
