package steiner

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func unitWeight(u, v int) float64 { return 1 }

func TestMSTApproxTrivialCases(t *testing.T) {
	g := graph.NewGrid(3, 3)
	for _, terms := range [][]int{nil, {4}, {4, 4, 4}} {
		tree, err := MSTApprox(g, unitWeight, terms)
		if err != nil {
			t.Fatalf("MSTApprox(%v): %v", terms, err)
		}
		if len(tree.Edges) != 0 || tree.Cost != 0 {
			t.Errorf("MSTApprox(%v) = %+v, want empty tree", terms, tree)
		}
	}
}

func TestMSTApproxTwoTerminalsIsShortestPath(t *testing.T) {
	g := graph.NewGrid(3, 3)
	tree, err := MSTApprox(g, unitWeight, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost != 4 {
		t.Errorf("Cost = %g, want 4 (hop distance 0->8)", tree.Cost)
	}
	if len(tree.Edges) != 4 {
		t.Errorf("len(Edges) = %d, want 4", len(tree.Edges))
	}
}

func TestMSTApproxSpansTerminalsWithTree(t *testing.T) {
	g := graph.NewGrid(4, 4)
	terms := []int{0, 3, 12, 15}
	tree, err := MSTApprox(g, unitWeight, terms)
	if err != nil {
		t.Fatal(err)
	}
	assertSpanningTree(t, tree, terms)
	// Optimal for 4 corners of a 4x4 grid is 9 edges (spanning an H/comb
	// shape); MST approx must be within 2x of any lower bound and is 9 or
	// 10 here.
	if tree.Cost > 10 {
		t.Errorf("Cost = %g, want <= 10", tree.Cost)
	}
}

func TestMSTApproxRespectsWeights(t *testing.T) {
	// Square 0-1, 1-3, 0-2, 2-3; heavy top path, cheap bottom.
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
		if u == 0 && v == 1 || u == 1 && v == 3 {
			return 10
		}
		return 1
	}
	tree, err := MSTApprox(g, w, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Cost != 2 {
		t.Errorf("Cost = %g, want 2 (via node 2)", tree.Cost)
	}
}

func TestMSTApproxDisconnected(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := MSTApprox(g, unitWeight, []int{0, 3}); err == nil {
		t.Error("want error for disconnected terminals")
	}
}

func TestMSTApproxTerminalOutOfRange(t *testing.T) {
	g := graph.NewGrid(2, 2)
	if _, err := MSTApprox(g, unitWeight, []int{0, 9}); err == nil {
		t.Error("want error for out-of-range terminal")
	}
}

func TestExactCostMatchesKnownOptimum(t *testing.T) {
	// 3x3 grid, terminals at corners: optimal Steiner tree uses the
	// middle cross, cost 6? Corners {0,2,6,8}: optimum is 6 edges
	// (e.g. edges 0-1,1-2,1-4,4-7? no 7-6 and 7-8 needed -> 0-1,1-2,
	// 1-4,4-7,7-6,7-8 = 6 edges).
	g := graph.NewGrid(3, 3)
	got, err := ExactCost(g, unitWeight, []int{0, 2, 6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("ExactCost = %g, want 6", got)
	}
}

func TestExactCostTwoTerminals(t *testing.T) {
	g := graph.NewGrid(4, 4)
	got, err := ExactCost(g, unitWeight, []int{0, 15})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("ExactCost = %g, want 6", got)
	}
}

func TestExactCostTrivialAndErrors(t *testing.T) {
	g := graph.NewGrid(2, 2)
	if got, err := ExactCost(g, unitWeight, []int{1}); err != nil || got != 0 {
		t.Errorf("single terminal: got (%g, %v), want (0, nil)", got, err)
	}
	if _, err := ExactCost(g, unitWeight, []int{0, 99}); err == nil {
		t.Error("want error for out-of-range terminal")
	}
	tooMany := make([]int, MaxExactTerminals+1)
	for i := range tooMany {
		tooMany[i] = i
	}
	big := graph.NewGrid(4, 4)
	if _, err := ExactCost(big, unitWeight, tooMany); err == nil {
		t.Error("want error above MaxExactTerminals")
	}
	disc := graph.New(4)
	if err := disc.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := disc.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ExactCost(disc, unitWeight, []int{0, 3}); err == nil {
		t.Error("want error for disconnected terminals")
	}
}

// Property: the MST approximation is feasible (spans all terminals, is
// acyclic and connected) and within 2x of the exact optimum. The optimum
// is also recomputed on one ExactScratch shared by every instance, whose
// table keeps the previous instance's cells, and must match bit for bit.
func TestMSTApproxWithinTwiceOptimal(t *testing.T) {
	var shared ExactScratch
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(nRaw)%10
		k := 2 + int(kRaw)%4
		if k > n {
			k = n
		}
		g := randomConnectedGraph(rng, n)
		weights := randomEdgeWeights(g, rng)
		w := func(u, v int) float64 { return weights[graph.Edge{U: u, V: v}.Canonical()] }
		terms := rng.Perm(n)[:k]

		tree, err := MSTApprox(g, w, terms)
		if err != nil {
			return false
		}
		opt, err := ExactCost(g, w, terms)
		if err != nil {
			return false
		}
		dist := make([][]float64, n)
		for v := range dist {
			dist[v], _ = g.Dijkstra(v, w)
		}
		if reused, err := ExactCostDist(dist, terms, &shared); err != nil || math.Float64bits(reused) != math.Float64bits(opt) {
			return false
		}
		if tree.Cost < opt-1e-9 {
			return false // approximation cannot beat the optimum
		}
		if tree.Cost > 2*opt+1e-9 {
			return false // 2-approximation bound
		}
		return spansAsTree(tree, terms)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTreeNodes(t *testing.T) {
	tree := Tree{Edges: []graph.Edge{{U: 2, V: 5}, {U: 5, V: 7}}}
	nodes := tree.Nodes()
	want := []int{2, 5, 7}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes() = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("Nodes()[%d] = %d, want %d", i, nodes[i], want[i])
		}
	}
}

func assertSpanningTree(t *testing.T, tree Tree, terminals []int) {
	t.Helper()
	if !spansAsTree(tree, terminals) {
		t.Errorf("tree %+v does not span terminals %v as a tree", tree, terminals)
	}
}

// spansAsTree checks the tree is acyclic, connected, and contains every
// terminal.
func spansAsTree(tree Tree, terminals []int) bool {
	if len(terminals) <= 1 {
		return len(tree.Edges) == 0
	}
	uf := newUnionFind()
	for _, e := range tree.Edges {
		if !uf.union(e.U, e.V) {
			return false // cycle
		}
	}
	root := uf.find(terminals[0])
	for _, term := range terminals[1:] {
		if uf.find(term) != root {
			return false
		}
	}
	// Connected + acyclic over its own node set: |E| = |V| - 1.
	return len(tree.Edges) == len(tree.Nodes())-1
}

// unionFind is a small map-keyed union-find for test assertions (the
// production path uses the dense slice-based one in Scratch).
type unionFind struct {
	parent map[int]int
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[int]int)}
}

func (u *unionFind) find(x int) int {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p != x {
		r := u.find(p)
		u.parent[x] = r
		return r
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[ra] = rb
	return true
}

func randomEdgeWeights(g *graph.Graph, rng *rand.Rand) map[graph.Edge]float64 {
	weights := make(map[graph.Edge]float64, g.NumEdges())
	for _, e := range g.Edges() {
		weights[e] = 1 + math.Floor(rng.Float64()*9)
	}
	return weights
}

func randomConnectedGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < rng.Intn(n+1); i++ {
		_ = g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}
