package eval

import (
	"slices"

	faircache "repro"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// naiveLRU is the classical non-cooperative baseline: every node inserts
// whatever it requested and missed, evicting its own least-recently-used
// chunk when full. No placement intelligence, no demand estimation —
// exactly the policy the adaptive system must beat. Serving and
// accounting follow the same rules as the adaptive replay (nearest copy
// network-wide, local hit within the radius), so rows are comparable.
type naiveLRU struct {
	n, chunks, capacity, radius, producer int

	hop     [][]int
	holds   []map[int]int64 // node -> chunk -> last-used tick
	holders [][]int         // chunk -> sorted holder list
	clock   int64

	requests, localHits, cacheHits int64
	evictions                      int64
	costSum                        float64
	hist                           []int64
}

func newNaiveLRU(topo *faircache.Topology, producer, chunks, capacity, radius int) (*naiveLRU, error) {
	n := topo.NumNodes()
	hop := make([][]int, n)
	maxHop := 0
	for j := 0; j < n; j++ {
		d, err := topo.HopDistances(j)
		if err != nil {
			return nil, err
		}
		hop[j] = d
		for _, h := range d {
			if h > maxHop {
				maxHop = h
			}
		}
	}
	l := &naiveLRU{
		n: n, chunks: chunks, capacity: capacity, radius: radius, producer: producer,
		hop:     hop,
		holds:   make([]map[int]int64, n),
		holders: make([][]int, chunks),
		hist:    make([]int64, maxHop+2),
	}
	for j := range l.holds {
		l.holds[j] = make(map[int]int64, capacity)
	}
	return l, nil
}

func (l *naiveLRU) holdersAdd(k, v int) {
	h := l.holders[k]
	i, _ := slices.BinarySearch(h, v)
	if i < len(h) && h[i] == v {
		return
	}
	h = append(h, 0)
	copy(h[i+1:], h[i:])
	h[i] = v
	l.holders[k] = h
}

func (l *naiveLRU) holdersRemove(k, v int) {
	h := l.holders[k]
	i, _ := slices.BinarySearch(h, v)
	if i < len(h) && h[i] == v {
		l.holders[k] = append(h[:i], h[i+1:]...)
	}
}

// serve accounts one request under the shared serving rule.
func (l *naiveLRU) serve(j, k int) {
	bestD := l.hop[j][l.producer]
	fromCache := false
	for _, v := range l.holders[k] {
		if d := l.hop[j][v]; d < bestD || (d == bestD && !fromCache) {
			bestD, fromCache = d, true
		}
	}
	l.requests++
	l.costSum += float64(bestD)
	if bestD < len(l.hist) {
		l.hist[bestD]++
	} else {
		l.hist[len(l.hist)-1]++
	}
	if fromCache {
		l.cacheHits++
		if bestD <= l.radius {
			l.localHits++
		}
	}
}

// observe serves the request, then applies insert-on-miss with per-node
// LRU replacement at the requester.
func (l *naiveLRU) observe(j, k int) {
	l.serve(j, k)
	l.clock++
	if j == l.producer {
		return
	}
	if _, ok := l.holds[j][k]; ok {
		l.holds[j][k] = l.clock
		return
	}
	if len(l.holds[j]) >= l.capacity {
		victim, oldest := -1, int64(0)
		for c, ts := range l.holds[j] {
			if victim < 0 || ts < oldest || (ts == oldest && c < victim) {
				victim, oldest = c, ts
			}
		}
		delete(l.holds[j], victim)
		l.holdersRemove(victim, j)
		l.evictions++
	}
	l.holds[j][k] = l.clock
	l.holdersAdd(k, j)
}

func (l *naiveLRU) counts() []int {
	out := make([]int, l.n)
	for j := range l.holds {
		out[j] = len(l.holds[j])
	}
	return out
}

func (l *naiveLRU) percentile(q float64) float64 {
	if l.requests == 0 {
		return 0
	}
	need := int64(q * float64(l.requests))
	if need < 1 {
		need = 1
	}
	var cum int64
	for h, c := range l.hist {
		cum += c
		if cum >= need {
			return float64(h)
		}
	}
	return float64(len(l.hist) - 1)
}

// runNaiveLRU replays the scenario's trace under the naive LRU baseline.
func (sc AdaptiveScenario) runNaiveLRU(topo *faircache.Topology, producer int) (faircache.AdaptiveStats, giniTrack, error) {
	var gini giniTrack
	trace, err := sim.NewTrace(sc.traceSpec(producer))
	if err != nil {
		return faircache.AdaptiveStats{}, gini, err
	}
	l, err := newNaiveLRU(topo, producer, sc.Chunks, sc.Capacity, sc.HitRadius)
	if err != nil {
		return faircache.AdaptiveStats{}, gini, err
	}
	for i := 1; i <= sc.Requests; i++ {
		r := trace.Next()
		l.observe(r.Node, r.Chunk)
		if i%sc.SampleEvery == 0 || i == sc.Requests {
			gini.add(metrics.Gini(l.counts()))
		}
	}
	return faircache.AdaptiveStats{
		HitRate:   float64(l.localHits) / float64(l.requests),
		CacheRate: float64(l.cacheHits) / float64(l.requests),
		MeanCost:  l.costSum / float64(l.requests),
		P99Cost:   l.percentile(0.99),
		Evictions: l.evictions,
	}, gini, nil
}
