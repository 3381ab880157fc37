// Package graph provides the undirected network-topology substrate used by
// every layer of the fair-caching system: grid and random-geometric
// generators, hop-count and weighted shortest paths, connectivity queries
// and k-hop neighborhoods. Every hop-count query — HopDistances,
// AllPairsHops, KHopNeighbors, Connected, Components, CentralNode and the
// PathCache's layer DAGs — runs on the one traversal kernel BFS;
// FloydWarshallHops shares no code with it and is its test reference.
//
// Nodes are dense integers in [0, N). The graph is simple (no self loops,
// no parallel edges) and undirected.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Edge is an undirected edge between nodes U and V with U < V.
type Edge struct {
	U, V int
}

// Canonical returns e with its endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v.
// It panics if v is not an endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", v, e))
	}
}

// Graph is a simple undirected graph over nodes 0..n-1.
//
// The zero value is an empty graph with no nodes; use New to create a graph
// with a fixed node count.
type Graph struct {
	n     int
	adj   [][]int
	edges []Edge
}

// ErrNodeOutOfRange reports an edge endpoint outside [0, N).
var ErrNodeOutOfRange = errors.New("graph: node out of range")

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:   n,
		adj: make([][]int, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u, v}. Inserting an existing edge or
// a self loop is a no-op. It returns ErrNodeOutOfRange if either endpoint is
// outside [0, N).
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: edge {%d,%d} in graph of %d nodes", ErrNodeOutOfRange, u, v, g.n)
	}
	if u == v || g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges = append(g.edges, Edge{U: u, V: v}.Canonical())
	return nil
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the neighbors of v. The returned slice is shared with
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the number of neighbors of v. In the contention model of
// the paper this is the Node Contention Cost w_v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Edges returns a copy of the edge list with canonical (U < V) endpoints,
// sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	slices.SortFunc(out, func(a, b Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	for v, nbrs := range g.adj {
		c.adj[v] = append([]int(nil), nbrs...)
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep, together with a
// mapping from new node ids to original ids. Nodes are renumbered densely
// in increasing original-id order.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	orig := append([]int(nil), keep...)
	slices.Sort(orig)
	// Drop duplicates.
	orig = dedupSortedInts(orig)
	index := make(map[int]int, len(orig))
	for i, v := range orig {
		index[v] = i
	}
	sub := New(len(orig))
	for _, e := range g.edges {
		iu, uok := index[e.U]
		iv, vok := index[e.V]
		if uok && vok {
			_ = sub.AddEdge(iu, iv) // endpoints are in range by construction
		}
	}
	return sub, orig
}

// Unreachable marks an unreachable node in hop-distance results.
const Unreachable = -1

// BFS is the package's one breadth-first traversal. It writes into dist
// (length NumNodes, caller-owned) every node's hop distance from the
// nearest of srcs, or Unreachable when no source reaches it within maxHops
// hops (maxHops < 0: no bound). Out-of-range and repeated sources are
// skipped. It returns the visit order, reusing queue's storage (grown to
// NumNodes when shorter): every reached node exactly once, nondecreasing
// in distance, starting with the sources in the order given.
func BFS[T ~int | ~int32](g *Graph, srcs []int, maxHops int, dist []T, queue []T) []T {
	for i := range dist {
		dist[i] = Unreachable
	}
	if cap(queue) < g.n {
		queue = make([]T, 0, g.n)
	}
	queue = queue[:0]
	for _, s := range srcs {
		if s >= 0 && s < g.n && dist[s] != 0 {
			dist[s] = 0
			queue = append(queue, T(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		next := dist[v] + 1
		if maxHops >= 0 && int(next) > maxHops {
			break // the rest of the queue is at least as far
		}
		for _, w := range g.adj[v] {
			if dist[w] == Unreachable {
				dist[w] = next
				queue = append(queue, T(w))
			}
		}
	}
	return queue
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	return len(BFS(g, []int{0}, -1, make([]int32, g.n), nil)) == g.n
}

// Components returns the connected components as slices of node ids, each
// sorted, ordered by their smallest node id.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	dist := make([]int32, g.n)
	var queue []int32
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		queue = BFS(g, []int{v}, -1, dist, queue)
		comp := make([]int, len(queue))
		for i, u := range queue {
			comp[i] = int(u)
			seen[u] = true
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// LargestComponent returns the nodes of the largest connected component,
// sorted. Ties break toward the component containing the smallest node id.
func (g *Graph) LargestComponent() []int {
	var best []int
	for _, comp := range g.Components() {
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}

// HopDistances returns the BFS hop distance from src to every node.
// Unreachable nodes get Unreachable (-1).
func (g *Graph) HopDistances(src int) []int {
	dist := make([]int, g.n)
	BFS(g, []int{src}, -1, dist, nil)
	return dist
}

// AllPairsHops returns the hop-distance matrix via repeated BFS
// (O(N·(N+E)), faster than Floyd–Warshall on sparse wireless topologies).
// Unreachable pairs get Unreachable (-1).
func (g *Graph) AllPairsHops() [][]int {
	all := make([][]int, g.n)
	var queue []int
	for v := range all {
		all[v] = make([]int, g.n)
		queue = BFS(g, []int{v}, -1, all[v], queue)
	}
	return all
}

// KHopNeighbors returns all nodes within k hops of v, excluding v itself,
// sorted by node id.
func (g *Graph) KHopNeighbors(v, k int) []int {
	if k <= 0 || v < 0 || v >= g.n {
		return nil
	}
	dist := make([]int32, g.n)
	BFS(g, []int{v}, k, dist, nil)
	var out []int
	for u, d := range dist {
		if u != v && d != Unreachable {
			out = append(out, u)
		}
	}
	return out
}

func dedupSortedInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
