package graph

import (
	"math"

	"repro/internal/bitset"
)

// Infinite is the distance reported for unreachable pairs by the weighted
// shortest-path routines.
var Infinite = math.Inf(1)

// NodeCostPaths computes, for every destination t, the minimum total node
// weight of a *hop-shortest* path from src to t, where the total includes
// the weights of both endpoints. The cost from src to itself is 0.
//
// This matches the paper's Path Contention Cost (Eq. 2): data packets
// travel along the shortest hop path, and every node on the path (sender,
// relays and receiver all transmit or receive the chunk) contributes its
// node contention cost. Among equal-hop paths the cheapest one is chosen,
// which makes the matrix deterministic.
//
// The second return value gives, for each destination, a predecessor on the
// chosen path (-1 for src and unreachable nodes), so the path itself can be
// reconstructed.
func (g *Graph) NodeCostPaths(src int, weight []float64) (cost []float64, pred []int32) {
	cost = make([]float64, g.n)
	pred = make([]int32, g.n)
	for i := range cost {
		cost[i] = Infinite
		pred[i] = -1
	}
	if src < 0 || src >= g.n {
		return cost, pred
	}

	hop := g.HopDistances(src)
	// Process nodes in increasing hop order; within a layer, each node's
	// cost is min over predecessors in the previous layer.
	order := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if hop[v] != Unreachable {
			order = append(order, v)
		}
	}
	// Counting-sort by hop distance (hop values are < n).
	buckets := make([][]int, g.n+1)
	for _, v := range order {
		buckets[hop[v]] = append(buckets[hop[v]], v)
	}

	cost[src] = weight[src]
	for h := 1; h <= g.n; h++ {
		for _, v := range buckets[h] {
			for _, u := range g.adj[v] {
				if hop[u] != h-1 || cost[u] == Infinite {
					continue
				}
				if c := cost[u] + weight[v]; c < cost[v] {
					cost[v] = c
					pred[v] = int32(u)
				}
			}
		}
	}
	cost[src] = 0 // a node already holding the data pays nothing
	return cost, pred
}

// PathTo reconstructs the node sequence from the source used to build pred
// to dst (inclusive of both endpoints). It returns nil if dst is
// unreachable. Predecessor rows use int32 node ids on the hot path and int
// elsewhere; both instantiate here.
func PathTo[T ~int | ~int32](pred []T, src, dst int) []int {
	if dst < 0 || dst >= len(pred) {
		return nil
	}
	if dst == src {
		return []int{src}
	}
	if pred[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = int(pred[v]) {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// EdgeWeightFunc gives the cost of traversing the undirected edge {u, v}.
// It must be symmetric and non-negative.
type EdgeWeightFunc func(u, v int) float64

// Arcs is a graph's adjacency in compressed rows with an EdgeWeightFunc
// evaluated once per arc: u's arcs, in Neighbors(u) order, are
// arcs[off[u]:off[u+1]]. A search over Arcs reads its weights from memory
// instead of calling the closure on every relaxation, so callers that
// search one weighting from many sources pay for it once. A filled Arcs
// is read-only and may back concurrent searches.
type Arcs struct {
	off  []int32
	arcs []arc
}

type arc struct {
	to int32
	w  float64
}

// Fill snapshots g's adjacency and evaluates w(u, v) on every arc u → v
// (2·NumEdges calls), reusing a's storage.
func (a *Arcs) Fill(g *Graph, w EdgeWeightFunc) {
	if cap(a.off) < g.n+1 {
		a.off = make([]int32, g.n+1)
	}
	if cap(a.arcs) < 2*len(g.edges) {
		a.arcs = make([]arc, 0, 2*len(g.edges))
	}
	a.off = a.off[:g.n+1]
	out := a.arcs[:0]
	for u, nbrs := range g.adj {
		a.off[u] = int32(len(out))
		for _, v := range nbrs {
			out = append(out, arc{to: int32(v), w: w(u, v)})
		}
	}
	a.off[g.n] = int32(len(out))
	a.arcs = out
}

// Weight returns the weight Fill evaluated for the arc u → v, or Infinite
// when v is not a neighbor of u.
func (a *Arcs) Weight(u, v int) float64 {
	for _, e := range a.arcs[a.off[u]:a.off[u+1]] {
		if int(e.to) == v {
			return e.w
		}
	}
	return Infinite
}

// WeightAt returns the weight Fill evaluated for u's i-th arc, the one to
// Neighbors(u)[i].
func (a *Arcs) WeightAt(u, i int) float64 { return a.arcs[int(a.off[u])+i].w }

// DijkstraStop ends a search early. Nodes settle in nondecreasing
// distance and a settled node's entries never change again, so every node
// a stopped search settles has exactly the distance and predecessor a
// full search gives it; the entries of the nodes it did not settle hold
// tentative values, each above Bound when the bound stopped the search.
type DijkstraStop struct {
	// Bound ends the search before it settles a node farther than Bound.
	Bound float64
	// Waiting > 0 ends the search once it has settled Waiting members of
	// Wait (a set over node ids).
	Wait    bitset.Set
	Waiting int
}

// Dijkstra computes edge-weighted shortest-path distances and predecessors
// from src using the supplied edge weights. Unreachable nodes get Infinite
// distance and predecessor -1.
func (g *Graph) Dijkstra(src int, w EdgeWeightFunc) (dist []float64, pred []int) {
	dist = make([]float64, g.n)
	pred32 := make([]int32, g.n)
	g.DijkstraInto(src, w, dist, pred32, nil)
	pred = make([]int, g.n)
	for i, p := range pred32 {
		pred[i] = int(p)
	}
	return dist, pred
}

// DijkstraScratch is the reusable storage of a search: its priority
// queue, and the arc weights DijkstraInto fills. One scratch serves any
// number of sequential runs; concurrent runs need one scratch each.
type DijkstraScratch struct {
	items []distItem
	arcs  Arcs
}

// Grow makes room in s for a search over n nodes, so that a cold search
// does not grow its queue one doubling at a time.
func (s *DijkstraScratch) Grow(n int) {
	if cap(s.items) < n {
		s.items = make([]distItem, 0, n)
	}
}

// DijkstraInto is Dijkstra writing into caller-owned rows (both of length
// NumNodes) with its storage borrowed from s (nil allocates a transient
// one): Arcs.ShortestPaths over w's arc weights.
func (g *Graph) DijkstraInto(src int, w EdgeWeightFunc, dist []float64, pred []int32, s *DijkstraScratch) {
	if s == nil {
		s = &DijkstraScratch{}
		s.Grow(g.n)
	}
	s.arcs.Fill(g, w)
	s.arcs.ShortestPaths(src, dist, pred, s, nil)
}

// ShortestPaths is the package's one Dijkstra loop: shortest-path distances
// and predecessors from src over a's arc weights, written into
// caller-owned rows of length NumNodes, with the priority queue borrowed
// from s. Unreachable nodes get Infinite distance and predecessor -1; a
// non-nil stop may end the search early. The heap replicates
// container/heap's sift order exactly and relaxation uses a strict <, so
// distances, predecessors and tie-breaks are byte-identical to a
// container/heap search calling the weight function per relaxation — the
// determinism suites replay placements bit for bit.
func (a *Arcs) ShortestPaths(src int, dist []float64, pred []int32, s *DijkstraScratch, stop *DijkstraStop) {
	for i := range dist {
		dist[i] = Infinite
		pred[i] = -1
	}
	if src < 0 || src >= len(a.off)-1 {
		return
	}
	bound, waiting := Infinite, 0
	var wait bitset.Set
	if stop != nil {
		bound, wait, waiting = stop.Bound, stop.Wait, stop.Waiting
	}
	dist[src] = 0
	h := append(s.items[:0], distItem{node: int32(src), dist: 0})
	for len(h) > 0 {
		// Pop: swap root with last, sift down over the shrunk heap, take
		// the detached last element — container/heap.Pop verbatim.
		n := len(h) - 1
		h[0], h[n] = h[n], h[0]
		heapDown(h[:n], 0)
		it := h[n]
		h = h[:n]
		u := it.node
		if it.dist > dist[u] {
			continue
		}
		if it.dist > bound {
			break
		}
		if waiting > 0 && wait.Has(int(u)) {
			if waiting--; waiting == 0 {
				break
			}
		}
		for _, e := range a.arcs[a.off[u]:a.off[u+1]] {
			if d := it.dist + e.w; d < dist[e.to] {
				dist[e.to] = d
				pred[e.to] = u
				h = append(h, distItem{node: e.to, dist: d})
				heapUp(h, len(h)-1)
			}
		}
	}
	s.items = h[:0]
}

type distItem struct {
	node int32
	dist float64
}

func heapUp(h []distItem, j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func heapDown(h []distItem, i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// FloydWarshallHops computes the all-pairs hop-distance matrix with the
// classic O(N^3) dynamic program. It exists alongside AllPairsHops (which
// is faster on sparse graphs) because the paper's complexity analysis
// references Floyd–Warshall, and it is the independent reference the
// tests and FuzzBFS check the BFS kernel against.
func (g *Graph) FloydWarshallHops() [][]int {
	const inf = math.MaxInt32 / 4
	d := make([][]int, g.n)
	for i := range d {
		d[i] = make([]int, g.n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for _, e := range g.edges {
		d[e.U][e.V] = 1
		d[e.V][e.U] = 1
	}
	for k := 0; k < g.n; k++ {
		for i := 0; i < g.n; i++ {
			dik := d[i][k]
			if dik >= inf {
				continue
			}
			for j := 0; j < g.n; j++ {
				if v := dik + d[k][j]; v < d[i][j] {
					d[i][j] = v
				}
			}
		}
	}
	for i := range d {
		for j := range d[i] {
			if d[i][j] >= inf {
				d[i][j] = Unreachable
			}
		}
	}
	return d
}
