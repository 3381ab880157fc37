package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// bridgeComponentsScan is the bridging step as a fresh component
// labelling and a scan of every first-component × node pair per added
// edge: the reference bridgeComponents must reproduce edge for edge.
func bridgeComponentsScan(g *Graph, pts []Point) {
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		compID := make([]int, g.NumNodes())
		for id, comp := range comps {
			for _, v := range comp {
				compID[v] = id
			}
		}
		bestU, bestV := -1, -1
		bestD := math.Inf(1)
		for _, u := range comps[0] {
			for v := 0; v < g.NumNodes(); v++ {
				if compID[v] == 0 {
					continue
				}
				if d := sqDist(pts[u], pts[v]); d < bestD {
					bestD, bestU, bestV = d, u, v
				}
			}
		}
		_ = g.AddEdge(bestU, bestV)
	}
}

// TestBridgeComponentsMatchesScan compares the bridged graphs on seeded
// samples, from a handful of nodes to 1,000 at radius 0.01 (863
// components): the same edges in the same insertion order, hence the same
// adjacency lists, which every BFS and tie-break reads. Points on a
// coarse lattice add exact distance ties.
func TestBridgeComponentsMatchesScan(t *testing.T) {
	type sample struct {
		n       int
		radius  float64
		lattice bool
	}
	samples := []sample{{1000, 0.01, false}, {500, 0.02, false}, {250, 0.05, true}}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		samples = append(samples, sample{2 + rng.Intn(120), 0.3 * rng.Float64(), i%2 == 1})
	}
	for i, sm := range samples {
		pts := samplePoints(sm.n, rng)
		if sm.lattice {
			for j := range pts {
				pts[j] = Point{X: math.Round(pts[j].X*8) / 8, Y: math.Round(pts[j].Y*8) / 8}
			}
		}
		got, want := connectWithin(pts, sm.radius), connectWithin(pts, sm.radius)
		start := time.Now()
		bridgeComponents(got, pts)
		fast := time.Since(start)
		start = time.Now()
		bridgeComponentsScan(want, pts)
		slow := time.Since(start)
		if i == 0 {
			t.Logf("n=%d radius=%g: bridged in %v, scan reference %v", sm.n, sm.radius, fast, slow)
		}
		if !got.Connected() {
			t.Fatalf("sample %d: bridged graph is not connected", i)
		}
		if !slices.Equal(got.edges, want.edges) {
			t.Fatalf("sample %d (n=%d): edge insertion order differs from the scan", i, sm.n)
		}
		for v := range got.adj {
			if !slices.Equal(got.adj[v], want.adj[v]) {
				t.Fatalf("sample %d: adjacency of node %d is %v, scan %v", i, v, got.adj[v], want.adj[v])
			}
		}
	}
}
