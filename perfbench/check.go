package main

import (
	"fmt"
	"math"
	"math/rand"

	faircache "repro"
	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/server"
)

// buildGraph builds the graph a registration request describes, with the
// same generators and parameters the faircache constructors use, so the
// benchmark can check responses against its own copy of the network.
func buildGraph(req server.RegisterRequest) (*graph.Graph, error) {
	switch req.Kind {
	case "grid":
		return graph.NewGrid(req.Rows, req.Cols), nil
	case "random":
		g, _, err := graph.RandomGeometric{N: req.Nodes, Radius: graph.DefaultRadius(req.Nodes)}.Generate(rand.New(rand.NewSource(req.Seed)))
		return g, err
	case "clustered":
		return graph.Clustered{Clusters: req.Clusters, Size: req.Size, IntraProb: 0.4, Bridges: 2}.Generate(rand.New(rand.NewSource(req.Seed)))
	}
	return nil, fmt.Errorf("benchmark builds no %q topology", req.Kind)
}

// buildTopology is buildGraph through the public constructors, for
// replays that call the root package's Solver.
func buildTopology(req server.RegisterRequest) (*faircache.Topology, error) {
	switch req.Kind {
	case "grid":
		return faircache.Grid(req.Rows, req.Cols)
	case "random":
		return faircache.Random(req.Nodes, req.Seed)
	case "clustered":
		return faircache.Clustered(req.Clusters, req.Size, req.Seed)
	}
	return nil, fmt.Errorf("benchmark builds no %q topology", req.Kind)
}

// capState returns the empty cache state a solve with these capacities
// starts from (capacity everywhere, overridden per node by caps).
func capState(n, capacity int, caps []int) *cache.State {
	if len(caps) == 0 {
		return cache.NewState(n, capacity)
	}
	full := make([]int, n)
	for i := range full {
		full[i] = capacity
		if i < len(caps) {
			full[i] = caps[i]
		}
	}
	return cache.NewStateWithCapacities(full)
}

// accessStrategy is the replay metric's access rule for an algorithm, as
// the root package evaluates its results.
func accessStrategy(alg string) metrics.AccessStrategy {
	switch alg {
	case "Hopc":
		return metrics.AccessHopNearest
	case "Cont":
		return metrics.AccessTopologyNearest
	}
	return metrics.AccessCostNearest
}

// checkPlacement checks one solve response: holder sets well formed, the
// producer never a holder, per-node counts equal to the holder
// multiplicities and within capacity, and Gini recomputed from the
// counts. It returns the first problem, or "".
func checkPlacement(resp *server.SolveResponse, n, producer, chunks, capacity int, caps []int) string {
	if resp.Chunks != chunks || len(resp.Holders) != chunks {
		return fmt.Sprintf("%d holder sets for %d chunks", len(resp.Holders), chunks)
	}
	if len(resp.Counts) != n {
		return fmt.Sprintf("%d counts for %d nodes", len(resp.Counts), n)
	}
	mult := make([]int, n)
	copies := 0
	for c, hs := range resp.Holders {
		seen := make(map[int]bool, len(hs))
		for _, h := range hs {
			if h < 0 || h >= n {
				return fmt.Sprintf("chunk %d holder %d out of range", c, h)
			}
			if h == producer {
				return fmt.Sprintf("chunk %d is held by the producer %d", c, h)
			}
			if seen[h] {
				return fmt.Sprintf("chunk %d lists holder %d twice", c, h)
			}
			seen[h] = true
			mult[h]++
			copies++
		}
	}
	st := capState(n, capacity, caps)
	for v := 0; v < n; v++ {
		if resp.Counts[v] != mult[v] {
			return fmt.Sprintf("node %d count %d but holds %d chunks", v, resp.Counts[v], mult[v])
		}
		if mult[v] > st.Capacity(v) {
			return fmt.Sprintf("node %d holds %d chunks over capacity %d", v, mult[v], st.Capacity(v))
		}
	}
	if resp.Copies != copies {
		return fmt.Sprintf("copies %d but holders list %d", resp.Copies, copies)
	}
	if g := metrics.Gini(resp.Counts); !approxEq(g, resp.Gini) {
		return fmt.Sprintf("gini %v, counts give %v", resp.Gini, g)
	}
	return ""
}

// checkCost compares a response's costs with an independent evaluation
// of its holders.
func checkCost(resp *server.SolveResponse, ev *metrics.Eval) string {
	if !approxEq(resp.AccessCost, ev.Access) || !approxEq(resp.DisseminationCost, ev.Dissemination) || !approxEq(resp.TotalCost, ev.Total()) {
		return fmt.Sprintf("costs access %v dissemination %v total %v, evaluation gives %v %v %v",
			resp.AccessCost, resp.DisseminationCost, resp.TotalCost, ev.Access, ev.Dissemination, ev.Total())
	}
	return ""
}

// nearest applies the daemon's lookup rule to hop distances dist: the
// producer serves unless a holder is at most as far, and among holders
// the first one listed at the minimum distance wins.
func nearest(dist, holders []int, producer int) (served, hops int) {
	served, hops = producer, dist[producer]
	fromProducer := true
	for _, h := range holders {
		if dist[h] < hops || (dist[h] == hops && fromProducer) {
			served, hops, fromProducer = h, dist[h], false
		}
	}
	return served, hops
}

// checkLookup checks a lookup answer against the holders the benchmark
// knows for that snapshot version and its own BFS distances.
func checkLookup(resp *server.LookupResponse, holders []int, dist []int, producer int) string {
	if !equalInts(resp.Holders, holders) {
		return fmt.Sprintf("chunk %d at v%d: holders %v, committed snapshot has %v", resp.Chunk, resp.Version, resp.Holders, holders)
	}
	served, hops := nearest(dist, holders, producer)
	if resp.ServedBy != served || resp.Hops != hops || resp.FromProducer != (served == producer) {
		return fmt.Sprintf("chunk %d node %d: servedBy %d hops %d, nearest is %d at %d hops",
			resp.Chunk, resp.Node, resp.ServedBy, resp.Hops, served, hops)
	}
	return ""
}

// checkCounts checks that per-node counts equal the holder multiplicities
// of a live-chunk map and stay within capacity.
func checkCounts(holders map[int][]int, counts []int, n, capacity int) string {
	if len(counts) != n {
		return fmt.Sprintf("%d counts for %d nodes", len(counts), n)
	}
	mult := make([]int, n)
	for c, hs := range holders {
		for _, h := range hs {
			if h < 0 || h >= n {
				return fmt.Sprintf("chunk %d holder %d out of range", c, h)
			}
			mult[h]++
		}
	}
	for v := range counts {
		if counts[v] != mult[v] || counts[v] > capacity {
			return fmt.Sprintf("node %d count %d, holds %d, capacity %d", v, counts[v], mult[v], capacity)
		}
	}
	return ""
}

// checkBatch checks one demand batch's accounting.
func checkBatch(b faircache.BatchResult, sent int) string {
	if b.Requests != int64(sent) || b.LocalHits > b.CacheHits || b.CacheHits > b.Requests || b.LocalHits < 0 {
		return fmt.Sprintf("batch of %d: requests %d cacheHits %d localHits %d", sent, b.Requests, b.CacheHits, b.LocalHits)
	}
	return ""
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
