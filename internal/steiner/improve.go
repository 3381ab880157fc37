package steiner

import (
	"slices"

	"repro/internal/graph"
)

// Improve applies key-path local search to a Steiner tree: every key path
// (maximal tree path whose interior vertices have tree-degree 2 and are
// not terminals) is tentatively removed, and the two resulting components
// are reconnected by the cheapest path between them in the full graph. The
// exchange is kept when it lowers the tree cost, and passes repeat until a
// local optimum. This is the classic polynomial improvement step toward
// the stronger Steiner ratios the paper cites ([25]); on the evaluation's
// contention-weighted grids it typically shaves a few percent off the MST
// 2-approximation.
func Improve(g *graph.Graph, w graph.EdgeWeightFunc, tree Tree, terminals []int) Tree {
	return ImproveScratch(g, w, tree, terminals, nil)
}

// ImproveScratch is Improve with the key-path search's per-node buffers
// (the arc weights, multi-source Dijkstra rows and heap, side membership,
// degree counts and the union-find) carved out of scr — the same arena
// the MST construction uses, so the per-chunk loop threads one scratch
// through both phases. nil allocates a transient scratch; results are
// identical either way.
func ImproveScratch(g *graph.Graph, w graph.EdgeWeightFunc, tree Tree, terminals []int, scr *Scratch) Tree {
	if scr == nil {
		scr = &Scratch{}
	}
	ts := uniqueSorted(terminals)
	if len(tree.Edges) == 0 || len(ts) <= 1 {
		return tree
	}
	isTerminal := make(map[int]bool, len(ts))
	for _, t := range ts {
		isTerminal[t] = true
	}
	// Every key-path search of every pass reads the same weights.
	scr.arcs.Fill(g, w)

	current := append([]graph.Edge(nil), tree.Edges...)
	for pass := 0; pass < len(ts)+2; pass++ {
		improved := false
		for _, kp := range keyPaths(current, isTerminal) {
			candidate, gain := tryExchange(g, w, current, kp, scr)
			if gain > 1e-9 {
				current = candidate
				improved = true
				break // tree changed; recompute key paths
			}
		}
		if !improved {
			break
		}
	}
	current = scr.pruneLeaves(current, ts, g.NumNodes())
	cost := 0.0
	for _, e := range current {
		cost += w(e.U, e.V)
	}
	return Tree{Edges: current, Cost: cost}
}

// keyPath is a maximal tree path whose interior nodes are non-terminal
// degree-2 vertices.
type keyPath struct {
	edges []graph.Edge
	cost  float64
}

// keyPaths decomposes the tree into its key paths. The maps here are
// proportional to the (small) tree, not the graph, and the decomposition
// runs once per accepted exchange — it is not worth arena treatment.
func keyPaths(edges []graph.Edge, isTerminal map[int]bool) []keyPath {
	adj := map[int][]graph.Edge{}
	deg := map[int]int{}
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], e)
		deg[e.U]++
		deg[e.V]++
	}
	isKey := func(v int) bool { return isTerminal[v] || deg[v] != 2 }

	var paths []keyPath
	seen := map[graph.Edge]bool{}
	var keyNodes []int
	for v := range deg {
		if isKey(v) {
			keyNodes = append(keyNodes, v)
		}
	}
	slices.Sort(keyNodes)
	for _, start := range keyNodes {
		for _, e := range adj[start] {
			if seen[e] {
				continue
			}
			// Walk from start through degree-2 non-key interior nodes.
			var kp keyPath
			prev, cur := start, e.Other(start)
			kp.edges = append(kp.edges, e)
			seen[e] = true
			for !isKey(cur) {
				for _, next := range adj[cur] {
					if next.Other(cur) != prev {
						seen[next] = true
						kp.edges = append(kp.edges, next)
						prev, cur = cur, next.Other(cur)
						break
					}
				}
			}
			paths = append(paths, kp)
		}
	}
	return paths
}

// Side labels for the key-path exchange scan.
const (
	sideNone = int8(0)
	sideA    = int8(1)
	sideB    = int8(2)
)

// growImprove sizes the per-node buffers of tryExchange.
func (scr *Scratch) growImprove(n int) {
	if cap(scr.idist) < n {
		scr.idist = make([]float64, n)
		scr.ipred = make([]int32, n)
		scr.visited = make([]bool, n)
		scr.side = make([]int8, n)
	}
	scr.idist = scr.idist[:n]
	scr.ipred = scr.ipred[:n]
	scr.visited = scr.visited[:n]
	scr.side = scr.side[:n]
}

// tryExchange removes a key path and reconnects the two resulting sides
// (anchored at the path's endpoints) with the cheapest available path,
// returning the new edge set and the cost gain (positive = improvement).
// The returned slice is freshly allocated only when an improvement is
// found; otherwise the input edges come back untouched.
func tryExchange(g *graph.Graph, w graph.EdgeWeightFunc, edges []graph.Edge, kp keyPath, scr *Scratch) ([]graph.Edge, float64) {
	n := g.NumNodes()
	scr.growImprove(n)
	oldCost := 0.0
	for _, e := range kp.edges {
		oldCost += w(e.U, e.V)
	}
	kept := scr.edges[:0]
	for _, e := range edges {
		if !slices.Contains(kp.edges, e) {
			kept = append(kept, e)
		}
	}
	scr.edges = kept

	endA, endB := pathEndpoints(kp.edges)

	// Components of the remaining forest, with the endpoints present even
	// when they keep no edges.
	uf := scr.resetUF(n)
	for _, e := range kept {
		ufUnion(uf, int32(e.U), int32(e.V))
	}
	rootA := ufFind(uf, int32(endA))
	rootB := ufFind(uf, int32(endB))
	if rootA == rootB {
		return edges, 0 // path removal did not disconnect (shouldn't happen)
	}

	// Side membership: kept-tree nodes plus the anchoring endpoints. The
	// tree was connected, so every kept endpoint lands in one of the two
	// anchor components.
	side := scr.side
	for i := range side {
		side[i] = sideNone
	}
	mark := func(v int) {
		if ufFind(uf, int32(v)) == rootA {
			side[v] = sideA
		} else {
			side[v] = sideB
		}
	}
	mark(endA)
	mark(endB)
	for _, e := range kept {
		mark(e.U)
		mark(e.V)
	}

	exchangeSearch(g, side, scr)
	dist, pred := scr.idist, scr.ipred

	// Cheapest reconnection into side B. Scan in node order so ties break
	// toward the smallest node id.
	bestNode, bestCost := -1, graph.Infinite
	for v := 0; v < n; v++ {
		if side[v] == sideB && dist[v] < bestCost {
			bestNode, bestCost = v, dist[v]
		}
	}
	if bestNode < 0 || bestCost >= oldCost-1e-9 {
		return edges, 0
	}

	// Splice in the reconnection path.
	result := append([]graph.Edge(nil), kept...)
	for v := bestNode; pred[v] != -1; v = int(pred[v]) {
		e := graph.Edge{U: int(pred[v]), V: v}.Canonical()
		if !slices.Contains(result, e) {
			result = append(result, e)
		}
	}
	return result, oldCost - bestCost
}

// exchangeItem is one entry of the exchange search's heap.
type exchangeItem struct {
	dist float64
	node int32
}

// less orders heap entries by distance, then node id.
func (a exchangeItem) less(b exchangeItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

// exchangeSearch is the key-path exchange's multi-source Dijkstra from
// every side-A node over the full graph, into scr.idist and scr.ipred,
// with the edge weights ImproveScratch filled into scr.arcs. It
// settles nodes in (distance, node id) order: the node a linear scan for
// the least distance would pick, the lowest id on ties. Exchange decisions
// are replayed byte for byte in the determinism suites, so that order is
// fixed. A binary heap keyed on the pair yields it with lazy deletion: a
// node whose distance drops is pushed again, and entries for settled
// nodes or above the node's current distance are skipped when popped.
// graph.DijkstraInto keeps container/heap's distance-only order instead,
// which the MST construction's trees depend on.
func exchangeSearch(g *graph.Graph, side []int8, scr *Scratch) {
	dist, pred, visited := scr.idist, scr.ipred, scr.visited
	h := scr.iheap[:0]
	for v := range dist {
		dist[v] = graph.Infinite
		pred[v] = -1
		visited[v] = false
		if side[v] == sideA {
			dist[v] = 0
			// Ascending ids at one distance already form a heap.
			h = append(h, exchangeItem{node: int32(v)})
		}
	}
	for len(h) > 0 {
		it := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		exchangeDown(h)
		u := int(it.node)
		if visited[u] || it.dist > dist[u] {
			continue
		}
		visited[u] = true
		for i, v := range g.Neighbors(u) {
			if d := dist[u] + scr.arcs.WeightAt(u, i); d < dist[v] {
				dist[v] = d
				pred[v] = int32(u)
				h = append(h, exchangeItem{dist: d, node: int32(v)})
				exchangeUp(h)
			}
		}
	}
	scr.iheap = h[:0]
}

// exchangeUp restores the heap order after an append.
func exchangeUp(h []exchangeItem) {
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].less(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// exchangeDown restores the heap order after the root was replaced.
func exchangeDown(h []exchangeItem) {
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h[j+1].less(h[j]) {
			j++
		}
		if !h[j].less(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// pathEndpoints returns the two degree-1 endpoints of an edge path (for a
// single edge, its two endpoints), smallest first. A key path has exactly
// two such nodes, so the quadratic degree count stays proportional to the
// (short) path, allocation-free.
func pathEndpoints(edges []graph.Edge) (int, int) {
	endA, endB := -1, -1
	for _, e := range edges {
		for _, v := range [2]int{e.U, e.V} {
			d := 0
			for _, f := range edges {
				if f.U == v || f.V == v {
					d++
				}
			}
			if d != 1 {
				continue
			}
			if endA == -1 {
				endA = v
			} else if v != endA && endB == -1 {
				endB = v
			}
		}
	}
	if endA >= 0 && endB >= 0 {
		if endA > endB {
			endA, endB = endB, endA
		}
		return endA, endB
	}
	// Degenerate (cycle) — fall back to the first edge's endpoints.
	return edges[0].U, edges[0].V
}
