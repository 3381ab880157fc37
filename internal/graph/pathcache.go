package graph

import "sync"

// PathCache memoises the topology-dependent half of NodeCostPaths: the BFS
// hop distances from each source and the layer DAG derived from them. Those
// depend only on the graph, while the node weights change on every chunk
// (the fairness feedback S(i) moves), so the per-chunk work drops to one
// predecessor-free cost sweep per source over the cached DAG.
//
// The DAG lists every node reachable from the source in BFS visit order,
// which is nondecreasing in hops, each with its previous-layer neighbours
// in adjacency order. A node's cost depends only on the layer before it,
// so any order that finishes a layer before starting the next gives the
// same costs. The sweep takes cost[v] = w[v] + min over those neighbours,
// which equals NodeCostPaths' min over cost[u] + w[v] bit for bit: rounded
// float addition is monotone, so adding w[v] after the minimum picks the
// same sum.
//
// A PathCache must only be used with the graph it was created for, and that
// graph must not gain edges afterwards. Entries build lazily and are safe
// for concurrent use.
type PathCache struct {
	g  *Graph
	mu sync.Mutex
	// entries[src] is nil until the first query from src.
	entries []*pathEntry
}

// pathEntry is the layer DAG of one source in CSR form, with the hop
// distances it came from. int32 values keep a topology's cache at 4 bytes
// per node and per DAG arc.
type pathEntry struct {
	hop []int32
	// order lists every node reachable from src except src itself, in
	// BFS visit order.
	order []int32
	// preds[start[k]:start[k+1]] are order[k]'s neighbours one layer
	// closer to src, in adjacency order.
	start []int32
	preds []int32
}

// NewPathCache returns an empty cache over g. Entries are built on demand.
func NewPathCache(g *Graph) *PathCache {
	return &PathCache{g: g, entries: make([]*pathEntry, g.n)}
}

func (pc *PathCache) peek(src int) *pathEntry {
	pc.mu.Lock()
	e := pc.entries[src]
	pc.mu.Unlock()
	return e
}

func (pc *PathCache) entry(src int) *pathEntry {
	if e := pc.peek(src); e != nil {
		return e
	}
	e := pc.build(src)
	pc.mu.Lock()
	if prev := pc.entries[src]; prev != nil {
		e = prev
	} else {
		pc.entries[src] = e
	}
	pc.mu.Unlock()
	return e
}

func (pc *PathCache) build(src int) *pathEntry {
	hop := make([]int32, pc.g.n)
	visit := BFS(pc.g, []int{src}, -1, hop, nil)
	e := &pathEntry{hop: hop, order: visit[1:]}
	arcs := 0
	for _, v := range e.order {
		for _, u := range pc.g.adj[v] {
			if hop[u] == hop[v]-1 {
				arcs++
			}
		}
	}
	e.start = make([]int32, 1, len(e.order)+1)
	e.preds = make([]int32, 0, arcs)
	for _, v := range e.order {
		for _, u := range pc.g.adj[v] {
			if hop[u] == hop[v]-1 {
				e.preds = append(e.preds, int32(u))
			}
		}
		e.start = append(e.start, int32(len(e.preds)))
	}
	return e
}

// NodeCostsInto writes the cost row of NodeCostPaths(src, weight) into
// cost (length NumNodes), bit for bit, for finite or +Inf weights other
// than −0. It computes no predecessors: the one sweep walks the cached
// layer DAG in order and takes each node's cheapest previous-layer
// neighbour with the branch-free builtin min. Callers reuse row storage
// across refreshes; the costmodel passes stride-indexed views into its
// flat matrix.
func (pc *PathCache) NodeCostsInto(src int, weight []float64, cost []float64) {
	if src < 0 || src >= pc.g.n {
		fillInfinite(cost)
		return
	}
	e := pc.entry(src)
	order, start, preds := e.order, e.start, e.preds
	if len(order)+1 < len(cost) {
		fillInfinite(cost) // only unreachable cells keep it
	}
	cost[src] = weight[src]
	lo := start[0]
	for k, v := range order {
		hi := start[k+1]
		// Every node past the source has its BFS parent among its preds.
		best := cost[preds[lo]]
		for j := lo + 1; j < hi; j++ {
			best = min(best, cost[preds[j]])
		}
		cost[v] = weight[v] + best
		lo = hi
	}
	cost[src] = 0
}

func fillInfinite(row []float64) {
	for i := range row {
		row[i] = Infinite
	}
}

// Cached returns the number of per-source entries currently built — the
// observable for growth audits (at most one entry per node).
func (pc *PathCache) Cached() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	count := 0
	for _, e := range pc.entries {
		if e != nil {
			count++
		}
	}
	return count
}

// HopDistances returns the cached BFS hop distances from src (building the
// entry if needed), Graph.HopDistances in int32. The returned slice is
// shared with the cache and must not be modified.
func (pc *PathCache) HopDistances(src int) []int32 {
	if src < 0 || src >= pc.g.n {
		hop := make([]int32, pc.g.n)
		for i := range hop {
			hop[i] = Unreachable
		}
		return hop
	}
	return pc.entry(src).hop
}
