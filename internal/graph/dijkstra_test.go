package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// refQueue is a container/heap priority queue of (node, distance) items.
type refQueue []distItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(distItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// referenceDijkstra is the textbook lazy-deletion Dijkstra on
// container/heap, calling w on every relaxation: the search
// Arcs.ShortestPaths must reproduce bit for bit.
func referenceDijkstra(g *Graph, src int, w EdgeWeightFunc) ([]float64, []int32) {
	dist := make([]float64, g.NumNodes())
	pred := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i], pred[i] = Infinite, -1
	}
	dist[src] = 0
	q := &refQueue{{node: int32(src)}}
	for q.Len() > 0 {
		it := heap.Pop(q).(distItem)
		u := int(it.node)
		if it.dist > dist[u] {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if d := it.dist + w(u, v); d < dist[v] {
				dist[v], pred[v] = d, int32(u)
				heap.Push(q, distItem{node: int32(v), dist: d})
			}
		}
	}
	return dist, pred
}

// TestArcsDijkstraMatchesReference checks the one Dijkstra loop against
// the container/heap reference on 3,000 seeded graphs, some with isolated
// nodes, under integer weights with zeros and ties and under random
// floats. A full search must match every distance's bits and every
// predecessor. A search stopped by a bound must match on every node
// within the bound and leave every other node above it. A search stopped
// by a waited-for set must settle the whole set, and every node it leaves
// different from the reference must be tentative: above its distance.
func TestArcsDijkstraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var arcs Arcs
	var s DijkstraScratch
	for trial := 0; trial < 3000; trial++ {
		g := randomConnectedGraph(rng, 1+rng.Intn(60))
		if trial%5 == 0 {
			h := New(g.NumNodes() + 2)
			for _, e := range g.Edges() {
				mustEdge(t, h, e.U, e.V)
			}
			g = h
		}
		n := g.NumNodes()
		weights := make(map[Edge]float64, g.NumEdges())
		for _, e := range g.Edges() {
			if trial%2 == 0 {
				weights[e] = float64(rng.Intn(4))
			} else {
				weights[e] = rng.Float64() * 3
			}
		}
		w := func(u, v int) float64 { return weights[Edge{U: u, V: v}.Canonical()] }
		src := rng.Intn(n)
		want, wantPred := referenceDijkstra(g, src, w)

		dist, pred := make([]float64, n), make([]int32, n)
		g.DijkstraInto(src, w, dist, pred, &s)
		for v := range dist {
			if math.Float64bits(dist[v]) != math.Float64bits(want[v]) || pred[v] != wantPred[v] {
				t.Fatalf("trial %d full: node %d dist %v pred %d, reference %v pred %d", trial, v, dist[v], pred[v], want[v], wantPred[v])
			}
		}

		arcs.Fill(g, w)
		bound := want[rng.Intn(n)]
		arcs.ShortestPaths(src, dist, pred, &s, &DijkstraStop{Bound: bound})
		for v := range dist {
			exact := math.Float64bits(dist[v]) == math.Float64bits(want[v]) && pred[v] == wantPred[v]
			if want[v] <= bound && !exact || want[v] > bound && !(dist[v] > bound) {
				t.Fatalf("trial %d bound %v: node %d dist %v pred %d, reference %v pred %d", trial, bound, v, dist[v], pred[v], want[v], wantPred[v])
			}
		}

		wait := bitset.New(n)
		waiting := 0
		for v := 0; v < n; v++ {
			if rng.Intn(8) == 0 && want[v] < Infinite {
				wait.Add(v)
				waiting++
			}
		}
		arcs.ShortestPaths(src, dist, pred, &s, &DijkstraStop{Bound: Infinite, Wait: wait, Waiting: waiting})
		for v := range dist {
			exact := math.Float64bits(dist[v]) == math.Float64bits(want[v]) && pred[v] == wantPred[v]
			if wait.Has(v) && !exact || !exact && !(dist[v] > want[v]) {
				t.Fatalf("trial %d wait: node %d dist %v pred %d, reference %v pred %d", trial, v, dist[v], pred[v], want[v], wantPred[v])
			}
		}
	}
}
