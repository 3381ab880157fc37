package steiner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// referenceMSTApprox is the metric-closure construction in its dense
// form, the reference for MSTApproxScratchCtx: a full Dijkstra row from
// every terminal, Prim by an ascending (from, to) scan of the closure with
// a strict <, the same path expansion, and Kruskal and the tree cost
// calling w directly.
func referenceMSTApprox(g *graph.Graph, w graph.EdgeWeightFunc, terminals []int) (Tree, error) {
	ts := uniqueSorted(terminals)
	if len(ts) <= 1 {
		return Tree{}, nil
	}
	n := g.NumNodes()
	for _, t := range ts {
		if t < 0 || t >= n {
			return Tree{}, fmt.Errorf("steiner: terminal %d out of range [0,%d)", t, n)
		}
	}
	dist := make([][]float64, len(ts))
	pred := make([][]int32, len(ts))
	for i, t := range ts {
		dist[i], pred[i] = make([]float64, n), make([]int32, n)
		g.DijkstraInto(t, w, dist[i], pred[i], nil)
	}

	inTree := make([]bool, len(ts))
	inTree[0] = true
	var mst []closureEdge
	for count := 1; count < len(ts); count++ {
		bestFrom, bestTo := -1, -1
		bestD := graph.Infinite
		for ai := range ts {
			if !inTree[ai] {
				continue
			}
			for bi := range ts {
				if inTree[bi] {
					continue
				}
				if d := dist[ai][ts[bi]]; d < bestD {
					bestD, bestFrom, bestTo = d, ai, bi
				}
			}
		}
		if bestTo == -1 {
			return Tree{}, fmt.Errorf("%w: %v", ErrDisconnected, ts)
		}
		mst = append(mst, closureEdge{from: int32(bestFrom), to: int32(bestTo)})
		inTree[bestTo] = true
	}

	var edges []graph.Edge
	for _, ce := range mst {
		src := ts[ce.from]
		for v := ts[ce.to]; v != src; {
			u := pred[ce.from][v]
			if u < 0 {
				break
			}
			edges = append(edges, graph.Edge{U: int(u), V: v}.Canonical())
			v = int(u)
		}
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	edges = slices.Compact(edges)

	slices.SortFunc(edges, func(a, b graph.Edge) int {
		wa, wb := w(a.U, a.V), w(b.U, b.V)
		if wa != wb {
			if wa < wb {
				return -1
			}
			return 1
		}
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
	scr := &Scratch{}
	uf := scr.resetUF(n)
	var kept []graph.Edge
	for _, e := range edges {
		if ufUnion(uf, int32(e.U), int32(e.V)) {
			kept = append(kept, e)
		}
	}
	kept = scr.pruneLeaves(kept, ts, n)

	cost := 0.0
	for _, e := range kept {
		cost += w(e.U, e.V)
	}
	return Tree{Edges: append([]graph.Edge(nil), kept...), Cost: cost}, nil
}

// differentialInstance draws one MSTApprox input: a grid, random or
// clustered graph (sometimes with isolated extra nodes, so terminals can
// be disconnected), one of four weightings, and a terminal list that may
// repeat terminals, hold a single one or name a node out of range.
func differentialInstance(rng *rand.Rand, trial int) (*graph.Graph, graph.EdgeWeightFunc, []int, error) {
	var g *graph.Graph
	switch trial % 3 {
	case 0:
		g = graph.NewGrid(1+rng.Intn(10), 1+rng.Intn(10))
	case 1:
		g = randomConnectedGraph(rng, 2+rng.Intn(50))
	case 2:
		c := graph.Clustered{Clusters: 1 + rng.Intn(4), Size: 1 + rng.Intn(12), IntraProb: 0.2 + 0.6*rng.Float64(), Bridges: 1 + rng.Intn(2)}
		var err error
		if g, err = c.Generate(rng); err != nil {
			return nil, nil, nil, err
		}
	}
	if rng.Intn(6) == 0 { // isolated extra nodes
		h := graph.New(g.NumNodes() + 1 + rng.Intn(3))
		for _, e := range g.Edges() {
			_ = h.AddEdge(e.U, e.V)
		}
		g = h
	}
	n := g.NumNodes()

	var w graph.EdgeWeightFunc
	switch rng.Intn(4) {
	case 0: // contention weights deg·(1+S): integers, ties everywhere
		node := make([]float64, n)
		for v := range node {
			node[v] = float64(g.Degree(v) * (1 + rng.Intn(3)))
		}
		w = func(u, v int) float64 { return node[u] + node[v] }
	case 1: // random floats
		weights := make(map[graph.Edge]float64, g.NumEdges())
		for _, e := range g.Edges() {
			weights[e] = rng.Float64() * 5
		}
		w = func(u, v int) float64 { return weights[graph.Edge{U: u, V: v}.Canonical()] }
	case 2: // small integers with zeros
		weights := make(map[graph.Edge]float64, g.NumEdges())
		for _, e := range g.Edges() {
			weights[e] = float64(rng.Intn(3))
		}
		w = func(u, v int) float64 { return weights[graph.Edge{U: u, V: v}.Canonical()] }
	case 3: // contention weights with some nodes free
		node := make([]float64, n)
		for v := range node {
			if rng.Intn(3) > 0 {
				node[v] = float64(g.Degree(v) * (1 + rng.Intn(3)))
			}
		}
		w = func(u, v int) float64 { return node[u] + node[v] }
	}

	var terms []int
	switch rng.Intn(10) {
	case 0:
		terms = []int{rng.Intn(n)}
	case 1:
		terms = []int{rng.Intn(n), rng.Intn(n), n + rng.Intn(3)}
	case 2:
		terms = []int{-1 - rng.Intn(2), rng.Intn(n)}
	default:
		k := 2 + rng.Intn(min(n, 22))
		for i := 0; i < k; i++ {
			terms = append(terms, rng.Intn(n))
		}
		if rng.Intn(3) == 0 {
			terms = append(terms, terms[rng.Intn(len(terms))])
		}
	}
	return g, w, terms, nil
}

// TestMSTApproxMatchesReference pins the Prim-order construction to the
// dense reference on 20,000 seeded instances. Both the returned edges and
// the cost's bits must match, and so must the error, through a scratch
// warmed on instances of every other shape.
func TestMSTApproxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	scr := &Scratch{}
	var disconnected, zeroWeight int
	for trial := 0; trial < 20000; trial++ {
		g, w, terms, err := differentialInstance(rng, trial)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := referenceMSTApprox(g, w, terms)
		got, gotErr := MSTApproxScratchCtx(context.Background(), g, w, terms, nil, scr)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("trial %d (terminals %v): err = %v, reference %v", trial, terms, gotErr, wantErr)
		}
		if errors.Is(wantErr, ErrDisconnected) {
			disconnected++
		}
		if !slices.Equal(got.Edges, want.Edges) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("trial %d (terminals %v):\n got %v cost %v\nwant %v cost %v", trial, terms, got.Edges, got.Cost, want.Edges, want.Cost)
		}
		for _, e := range g.Edges() {
			if w(e.U, e.V) == 0 {
				zeroWeight++
				break
			}
		}
	}
	if disconnected < 100 || zeroWeight < 1000 {
		t.Fatalf("coverage: %d disconnected and %d zero-weight instances", disconnected, zeroWeight)
	}
}

// TestMSTApproxEvaluatesEachArcOnce: the construction calls w once per
// arc of the graph, whatever the terminal count.
func TestMSTApproxEvaluatesEachArcOnce(t *testing.T) {
	g := graph.NewGrid(15, 15)
	calls := 0
	w := func(u, v int) float64 {
		calls++
		return float64(g.Degree(u) + g.Degree(v))
	}
	for _, k := range []int{2, 8, 20} {
		calls = 0
		terms := make([]int, k)
		for i := range terms {
			terms[i] = i * 11
		}
		if _, err := MSTApprox(g, w, terms); err != nil {
			t.Fatal(err)
		}
		if calls != 2*g.NumEdges() {
			t.Errorf("%d terminals: %d weight calls, want %d", k, calls, 2*g.NumEdges())
		}
	}
}
