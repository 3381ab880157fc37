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

	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/sim"
)

// This file keeps the adaptation pass's original scans as the reference
// the production pass must reproduce bit for bit: serving and the chunk
// ranking read N nearest-server scans per chunk, the eviction oracle
// re-derived every requester's nearest and second-nearest copy after each
// eviction into a map, the redundancy greedy priced every candidate as an
// N-term sum over requesters, and the fill scanned the holders for every
// (node, chunk) pair. The bodies are the pre-rewrite code, renamed.

func refCopyID(node, chunk int) int64 { return int64(node)<<32 | int64(uint32(chunk)) }

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

// refRecord is requester j's retrieval record for chunk k from a fresh
// scan: nearestServer's answer and the nearest other server.
func (s *System) refRecord(j, k int) record {
	server, hops := s.nearestServer(j, k)
	r := record{server: -1, best: int32(hops), second: math.MaxInt32}
	if server != s.producer {
		r.server, r.second = int32(server), s.hop[j][s.producer]
	}
	for _, v := range s.holders[k] {
		if v != server {
			r.second = min(r.second, s.hop[j][v])
		}
	}
	return r
}

// checkRecords asserts that every retrieval record equals a fresh scan.
func checkRecords(t *testing.T, s *System, where string) {
	t.Helper()
	n := len(s.hop)
	for k := 0; k < s.chunks; k++ {
		for j := 0; j < n; j++ {
			if got, want := s.records[k*n+j], s.refRecord(j, k); got != want {
				t.Fatalf("%s: record (chunk %d, requester %d) = %+v, fresh scan %+v (holders %v)", where, k, j, got, want, s.holders[k])
			}
		}
	}
}

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

// refSelectVictim returns the candidate with the lowest score, breaking
// ties toward the lowest (node, chunk) pair. ok is false when candidates
// is empty.
func refSelectVictim(score func(Copy) float64, candidates []Copy) (victim Copy, ok bool) {
	best := math.Inf(1)
	for _, c := range candidates {
		sc := score(c)
		if !ok || sc < best ||
			(sc == best && (c.Node < victim.Node || (c.Node == victim.Node && c.Chunk < victim.Chunk))) {
			victim, best, ok = c, sc, true
		}
	}
	return victim, ok
}

// refPressureEvict scores copies from oracle under EvictCost and from
// the system's own LRU or LFU table otherwise.
func (s *System) refPressureEvict(shares, weights []float64, report *AdaptReport, oracle map[int64]float64) error {
	free := 0
	for v := 0; v < s.st.NumNodes(); v++ {
		free += s.st.Free(v)
	}
	var candidates []Copy
	for k := 0; k < s.chunks; k++ {
		for _, v := range s.holders[k] {
			candidates = append(candidates, Copy{Node: v, Chunk: k})
		}
	}
	score := func(c Copy) float64 { return s.scores[c.Chunk*len(s.hop)+c.Node] }
	if oracle != nil {
		score = func(c Copy) float64 { return oracle[refCopyID(c.Node, c.Chunk)] }
		clear(oracle)
		for k := 0; k < s.chunks; k++ {
			s.refMarginalEvictCost(k, shares, weights, oracle)
		}
	}
	for free < s.opts.CopyBudget && len(candidates) > 0 {
		victim, ok := refSelectVictim(score, candidates)
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
			report.Placed = append(report.Placed, Copy{Node: bestV, Chunk: k})
			budget--
			progressed = true
		}
		if !progressed {
			break
		}
	}
}

func (s *System) refFillFree(shares []float64, report *AdaptReport) {
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
					dist += hitBonus
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

// refAdapt is AdaptCtx's phase sequence over the reference scans, with
// oracle (nil for LRU and LFU) as the EvictCost scores' map. It also
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
	pl := pool.New(0)
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
	s.refFillFree(shares, report)
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

var evictions = map[string]Eviction{"cost": EvictCost, "lru": EvictLRU, "lfu": EvictLFU}

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
		opts.Eviction = evictions[in.strategy]
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
			wantServer, wantHops := prod.nearestServer(r.Node, r.Chunk)
			for _, s := range []*System{prod, ref} {
				server, hops, err := s.Observe(r.Node, r.Chunk)
				if err != nil {
					t.Fatal(err)
				}
				if server != wantServer || hops != wantHops {
					t.Fatalf("%s pass %d: Observe(%d, %d) = (%d, %d), reference scan (%d, %d)",
						in.name, pass, r.Node, r.Chunk, server, hops, wantServer, wantHops)
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
		n := in.g.NumNodes()
		for i, a := range prod.scores {
			b := ref.scores[i]
			if oracle != nil {
				b = oracle[refCopyID(i%n, i/n)]
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s pass %d: score of copy (%d, %d) = %v, reference %v", in.name, pass, i%n, i/n, a, b)
			}
		}
		if err := prod.Model().Verify(ctx, pl); err != nil {
			t.Fatalf("%s pass %d: %v", in.name, pass, err)
		}
		checkRecords(t, prod, fmt.Sprintf("%s pass %d", in.name, pass))
		tally.passes++
		if len(got.Evicted) >= 50 {
			tally.bigEvictions++
		}
		if redundancy > 0 {
			tally.redundancy++
		}
	}
}

// TestAdaptMatchesReference pins serving and every adaptation pass to the
// reference scans: each event's server and distance, reports,
// placements, stats and every eviction score must match bit for bit,
// every retrieval record must equal a fresh scan after each pass, and the
// cost model must pass Verify, on the daemon's settings and on randomized
// grids, random geometric and clustered graphs under each eviction
// strategy.
func TestAdaptMatchesReference(t *testing.T) {
	// The full set runs in tier-1 tests; -short and -race run a reduced
	// one, with the daemon's settings under EvictCost only and
	// proportionally lower floors on what it must exercise.
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
