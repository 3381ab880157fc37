package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// NewGrid returns a rows×cols grid network: node r*cols+c connects to its
// four lattice neighbors (fewer on the boundary), matching the grid
// topologies of the paper's evaluation.
func NewGrid(rows, cols int) *Graph {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				_ = g.AddEdge(v, v+1) // in range by construction
			}
			if r+1 < rows {
				_ = g.AddEdge(v, v+cols)
			}
		}
	}
	return g
}

// Point is a node position in the unit square, used by the random
// geometric generator.
type Point struct {
	X, Y float64
}

// RandomGeometric describes a random geometric network: n nodes placed
// uniformly in the unit square, with an edge between every pair within
// Radius. This is the paper's "random network" model ("nodes within a
// certain range are connected").
type RandomGeometric struct {
	N      int
	Radius float64
}

// maxGeometricTries bounds resampling before falling back to stitching
// components together.
const maxGeometricTries = 64

// Generate draws a connected random geometric graph using rng. If Radius is
// too small to yield a connected sample after several tries, the nearest
// pair of distinct components is bridged (shortest such edge first) until
// the graph is connected, so callers always receive a connected topology as
// the paper's setup requires. It also returns the node positions.
func (rg RandomGeometric) Generate(rng *rand.Rand) (*Graph, []Point, error) {
	if rg.N <= 0 {
		return nil, nil, fmt.Errorf("graph: random geometric needs n > 0, got %d", rg.N)
	}
	if rg.Radius <= 0 {
		return nil, nil, fmt.Errorf("graph: random geometric needs radius > 0, got %g", rg.Radius)
	}
	var (
		g   *Graph
		pts []Point
	)
	for try := 0; try < maxGeometricTries; try++ {
		pts = samplePoints(rg.N, rng)
		g = connectWithin(pts, rg.Radius)
		if g.Connected() {
			return g, pts, nil
		}
	}
	bridgeComponents(g, pts)
	return g, pts, nil
}

// defaultTargetDegree keeps random geometric graphs in the sparse
// multi-hop regime of wireless simulations (grid-like node degrees).
const defaultTargetDegree = 6

// DefaultRadius returns a connectivity radius giving an expected node
// degree of about 6, the sparse multi-hop regime the paper's wireless
// scenarios live in (a grid has degree ≤ 4). Samples that come out
// disconnected at this radius are stitched by Generate's bridging step,
// so connectivity is still guaranteed.
func DefaultRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Sqrt(defaultTargetDegree / (math.Pi * float64(n)))
}

func samplePoints(n int, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func connectWithin(pts []Point, radius float64) *Graph {
	g := New(len(pts))
	r2 := radius * radius
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if sqDist(pts[i], pts[j]) <= r2 {
				_ = g.AddEdge(i, j) // in range by construction
			}
		}
	}
	return g
}

// bridgeComponents connects g by growing node 0's component Prim-style:
// each step adds the geometrically shortest edge from it to another
// component, ties broken toward the smaller inside node and then the
// smaller outside node, and absorbs that outside node's whole component.
// Every outside node keeps its nearest inside node (the smallest id on
// ties), so the whole growth costs O(N²) distance evaluations instead of
// a fresh component labelling and pair scan per added edge.
func bridgeComponents(g *Graph, pts []Point) {
	n := g.NumNodes()
	comps := g.Components()
	compID := make([]int, n)
	for id, comp := range comps {
		for _, v := range comp {
			compID[v] = id
		}
	}
	inside := make([]bool, n)
	near := make([]int, n)
	nearD := make([]float64, n)
	for v := range nearD {
		nearD[v] = math.Inf(1)
	}
	absorb := func(id int) {
		for _, u := range comps[id] {
			inside[u] = true
		}
		for _, u := range comps[id] {
			for v := 0; v < n; v++ {
				if inside[v] {
					continue
				}
				if d := sqDist(pts[u], pts[v]); d < nearD[v] || (d == nearD[v] && u < near[v]) {
					near[v], nearD[v] = u, d
				}
			}
		}
	}
	absorb(0)
	for left := len(comps) - 1; left > 0; left-- {
		best := -1
		for v := 0; v < n; v++ {
			if inside[v] {
				continue
			}
			if best < 0 || nearD[v] < nearD[best] || (nearD[v] == nearD[best] && near[v] < near[best]) {
				best = v
			}
		}
		_ = g.AddEdge(near[best], best) // endpoints valid: picked from node range
		absorb(compID[best])
	}
}

func sqDist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// CentralNode returns the node with the smallest total hop distance to all
// other nodes (a natural producer choice on random topologies), breaking
// ties toward the smaller id.
func CentralNode(g *Graph) int {
	best, bestSum := 0, math.MaxInt64
	dist := make([]int32, g.n)
	var queue []int32
	for v := 0; v < g.n; v++ {
		queue = BFS(g, []int{v}, -1, dist, queue)
		if len(queue) < g.n {
			continue // some node is unreachable from v
		}
		sum := 0
		for _, d := range dist {
			sum += int(d)
		}
		if sum < bestSum {
			best, bestSum = v, sum
		}
	}
	return best
}
