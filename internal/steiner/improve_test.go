package steiner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestImproveTrivial(t *testing.T) {
	g := graph.NewGrid(3, 3)
	if got := Improve(g, unitWeight, Tree{}, []int{0}); len(got.Edges) != 0 {
		t.Errorf("empty tree improved to %+v", got)
	}
}

func TestImproveFixesDetour(t *testing.T) {
	// Square plus a long detour: 0-1 (1), 1-3 (1), 0-2 (10), 2-3 (10).
	// A deliberately bad tree connects {0, 3} via the heavy path; the
	// local search must swap to the light one.
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	w := func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		if (u == 0 && v == 2) || (u == 2 && v == 3) {
			return 10
		}
		return 1
	}
	bad := Tree{Edges: []graph.Edge{{U: 0, V: 2}, {U: 2, V: 3}}, Cost: 20}
	improved := Improve(g, w, bad, []int{0, 3})
	if improved.Cost != 2 {
		t.Errorf("improved cost = %g, want 2", improved.Cost)
	}
	if !spansAsTree(improved, []int{0, 3}) {
		t.Errorf("improved result is not a valid tree: %+v", improved)
	}
}

// Property: Improve never increases cost, keeps feasibility, and stays at
// or above the exact optimum on random instances.
func TestImproveNeverWorsensAndStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(12)
		g := randomConnectedGraph(rng, n)
		weights := randomEdgeWeights(g, rng)
		w := func(u, v int) float64 { return weights[graph.Edge{U: u, V: v}.Canonical()] }
		k := 2 + rng.Intn(4)
		if k > n {
			k = n
		}
		terms := rng.Perm(n)[:k]

		base, err := MSTApprox(g, w, terms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		improved := Improve(g, w, base, terms)
		if improved.Cost > base.Cost+1e-9 {
			t.Errorf("trial %d: Improve raised cost %g -> %g", trial, base.Cost, improved.Cost)
		}
		if !spansAsTree(improved, terms) {
			t.Errorf("trial %d: improved tree infeasible", trial)
		}
		opt, err := ExactCost(g, w, terms)
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		if improved.Cost < opt-1e-9 {
			t.Errorf("trial %d: improved cost %g below optimum %g", trial, improved.Cost, opt)
		}
	}
}

// TestImproveHelpsOnAverage verifies the local search actually finds
// improvements on a meaningful fraction of weighted instances (otherwise
// it would be dead code).
func TestImproveHelpsOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	improvedCount, trials := 0, 60
	for trial := 0; trial < trials; trial++ {
		n := 9 + rng.Intn(12)
		g := randomConnectedGraph(rng, n)
		weights := randomEdgeWeights(g, rng)
		w := func(u, v int) float64 { return weights[graph.Edge{U: u, V: v}.Canonical()] }
		terms := rng.Perm(n)[:4]
		base, err := MSTApprox(g, w, terms)
		if err != nil {
			t.Fatal(err)
		}
		if got := Improve(g, w, base, terms); got.Cost < base.Cost-1e-9 {
			improvedCount++
		}
	}
	if improvedCount == 0 {
		t.Error("local search never improved any instance")
	}
	t.Logf("local search improved %d/%d instances", improvedCount, trials)
}

// scanExchangeSearch is the exchange search as a linear scan for the
// unsettled node of least distance, lowest id on ties: the reference
// exchangeSearch's heap must reproduce.
func scanExchangeSearch(g *graph.Graph, w graph.EdgeWeightFunc, side []int8) ([]float64, []int32) {
	n := g.NumNodes()
	dist, pred, visited := make([]float64, n), make([]int32, n), make([]bool, n)
	for v := 0; v < n; v++ {
		dist[v] = graph.Infinite
		pred[v] = -1
		visited[v] = false
		if side[v] == sideA {
			dist[v] = 0
		}
	}
	for {
		u, best := -1, graph.Infinite
		for v := 0; v < n; v++ {
			if !visited[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			break
		}
		visited[u] = true
		for _, v := range g.Neighbors(u) {
			if d := dist[u] + w(u, v); d < dist[v] {
				dist[v] = d
				pred[v] = int32(u)
			}
		}
	}
	return dist, pred
}

// TestExchangeSearchMatchesScan pins the heap search to the linear scan
// on 3,000 seeded instances: grids, random and clustered graphs (some
// disconnected), integer weights full of ties and fractional ones, and
// random side-A source sets. Distances must match bit for bit and every
// predecessor exactly, which fixes every exchange decision.
func TestExchangeSearchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	scr := &Scratch{}
	for trial := 0; trial < 3000; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = graph.NewGrid(1+rng.Intn(9), 1+rng.Intn(9))
		case 1:
			g = randomConnectedGraph(rng, 2+rng.Intn(40))
			if rng.Intn(4) == 0 { // an isolated extra node
				h := graph.New(g.NumNodes() + 1)
				for _, e := range g.Edges() {
					_ = h.AddEdge(e.U, e.V)
				}
				g = h
			}
		case 2:
			c := graph.Clustered{Clusters: 1 + rng.Intn(4), Size: 1 + rng.Intn(10), IntraProb: 0.2 + 0.6*rng.Float64(), Bridges: 1 + rng.Intn(2)}
			var err error
			if g, err = c.Generate(rng); err != nil {
				t.Fatal(err)
			}
		}
		weights := randomEdgeWeights(g, rng)
		if trial%2 == 1 {
			for e := range weights {
				weights[e] = rng.Float64() * 3
			}
		}
		w := func(u, v int) float64 { return weights[graph.Edge{U: u, V: v}.Canonical()] }
		n := g.NumNodes()
		side := make([]int8, n)
		for v := range side {
			side[v] = int8(rng.Intn(3))
		}
		side[rng.Intn(n)] = sideA
		scr.growImprove(n)
		scr.arcs.Fill(g, w)
		exchangeSearch(g, side, scr)
		wantDist, wantPred := scanExchangeSearch(g, w, side)
		for v := 0; v < n; v++ {
			if math.Float64bits(scr.idist[v]) != math.Float64bits(wantDist[v]) || scr.ipred[v] != wantPred[v] {
				t.Fatalf("trial %d node %d: dist %v pred %d, scan %v pred %d", trial, v, scr.idist[v], scr.ipred[v], wantDist[v], wantPred[v])
			}
		}
	}
}
