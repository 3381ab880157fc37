package partition

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func gridGraph(t *testing.T, rows, cols int) *graph.Graph {
	t.Helper()
	return graph.NewGrid(rows, cols)
}

func randomGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rg := graph.RandomGeometric{N: n, Radius: graph.DefaultRadius(n)}
	g, _, err := rg.Generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkPartition asserts the structural invariants every cut must satisfy:
// full disjoint coverage, connected regions of at least MinRegionNodes,
// consistent RegionOf, and cut/boundary sets matching the labels.
func checkPartition(t *testing.T, g *graph.Graph, p *Partition) {
	t.Helper()
	seen := make([]int, g.NumNodes())
	for i := range seen {
		seen[i] = -1
	}
	for r, reg := range p.Regions {
		if len(reg.Nodes) < MinRegionNodes {
			t.Errorf("region %d has %d nodes, want >= %d", r, len(reg.Nodes), MinRegionNodes)
		}
		if !reg.Sub.Connected() {
			t.Errorf("region %d subtopology is disconnected", r)
		}
		if reg.Sub.NumNodes() != len(reg.Nodes) {
			t.Errorf("region %d: %d sub nodes != %d members", r, reg.Sub.NumNodes(), len(reg.Nodes))
		}
		for i, v := range reg.Nodes {
			if i > 0 && reg.Nodes[i-1] >= v {
				t.Errorf("region %d nodes not ascending: %v", r, reg.Nodes)
			}
			if seen[v] != -1 {
				t.Errorf("node %d in regions %d and %d", v, seen[v], r)
			}
			seen[v] = r
			if p.RegionOf[v] != r {
				t.Errorf("RegionOf[%d] = %d, want %d", v, p.RegionOf[v], r)
			}
		}
	}
	for v, r := range seen {
		if r == -1 {
			t.Errorf("node %d not assigned to any region", v)
		}
	}
	wantBoundary := map[int]bool{}
	cuts := 0
	for _, e := range g.Edges() {
		if p.RegionOf[e.U] != p.RegionOf[e.V] {
			cuts++
			wantBoundary[e.U] = true
			wantBoundary[e.V] = true
		}
	}
	if cuts != len(p.CutEdges) {
		t.Errorf("cut edges %d, want %d", len(p.CutEdges), cuts)
	}
	if len(wantBoundary) != len(p.Boundary) {
		t.Errorf("boundary %v has %d nodes, want %d", p.Boundary, len(p.Boundary), len(wantBoundary))
	}
	for _, v := range p.Boundary {
		if !wantBoundary[v] {
			t.Errorf("node %d in Boundary but touches no cut edge", v)
		}
	}
}

func TestGridTiles(t *testing.T) {
	g := gridGraph(t, 6, 6)
	p, err := New(g, Options{Regions: 4, GridRows: 6, GridCols: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, p)
	if len(p.Regions) != 4 {
		t.Fatalf("regions = %d, want 4 (2×2 tiles on a 6×6 grid)", len(p.Regions))
	}
	for r, reg := range p.Regions {
		if len(reg.Nodes) != 9 {
			t.Errorf("region %d has %d nodes, want 9", r, len(reg.Nodes))
		}
	}
	// A 2×2 tiling of a 6×6 grid cuts one 6-edge row seam and one 6-edge
	// column seam.
	if len(p.CutEdges) != 12 {
		t.Errorf("cut edges = %d, want 12", len(p.CutEdges))
	}
}

func TestGridTilesApproximateK(t *testing.T) {
	// 5 doesn't tile 8×8 exactly; the cutter picks a nearby tile grid and
	// the invariants still hold.
	g := gridGraph(t, 8, 8)
	p, err := New(g, Options{Regions: 5, GridRows: 8, GridCols: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, p)
	if len(p.Regions) < 2 {
		t.Fatalf("regions = %d, want >= 2", len(p.Regions))
	}
}

func TestGrowthCutRandomAndClustered(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random40": randomGraph(t, 40, 3),
		"random80": randomGraph(t, 80, 7),
	}
	cl := graph.Clustered{Clusters: 4, Size: 8, IntraProb: 0.4, Bridges: 2}
	cg, err := cl.Generate(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	graphs["clustered"] = cg
	for name, g := range graphs {
		for _, k := range []int{2, 4, 6} {
			p, err := New(g, Options{Regions: k})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			checkPartition(t, g, p)
			// Growth cuts merge fragments but never split, so the region
			// count is at most k.
			if len(p.Regions) < 2 || len(p.Regions) > k {
				t.Errorf("%s k=%d: got %d regions", name, k, len(p.Regions))
			}
		}
	}
}

func TestCutDeterminism(t *testing.T) {
	g := randomGraph(t, 60, 5)
	a, err := New(g, Options{Regions: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, Options{Regions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.RegionOf, b.RegionOf) {
		t.Fatal("repeated cuts assigned nodes differently")
	}
	if !reflect.DeepEqual(a.CutEdges, b.CutEdges) || !reflect.DeepEqual(a.Boundary, b.Boundary) {
		t.Fatal("repeated cuts produced different frontiers")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	disconnected := graph.New(6)
	_ = disconnected.AddEdge(0, 1)
	_ = disconnected.AddEdge(2, 3)
	_ = disconnected.AddEdge(4, 5)
	if _, err := New(disconnected, Options{Regions: 2}); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected: err = %v, want ErrDisconnected", err)
	}
	g := gridGraph(t, 4, 4)
	for _, k := range []int{-1, 0, 1, 9, 100} {
		if _, err := New(g, Options{Regions: k}); !errors.Is(err, ErrBadRegions) {
			t.Errorf("k=%d: err = %v, want ErrBadRegions", k, err)
		}
	}
	if _, err := New(nil, Options{Regions: 2}); !errors.Is(err, ErrBadRegions) {
		t.Errorf("nil graph: err = %v, want ErrBadRegions", err)
	}
	if _, err := New(graph.NewLine(3), Options{Regions: 2}); !errors.Is(err, ErrBadRegions) {
		t.Errorf("3 nodes: err = %v, want ErrBadRegions", err)
	}
}

func TestStitchDropsRedundantBoundaryCopy(t *testing.T) {
	// Line 0-1-2-3-4-5 split in the middle: copies on 2 and 3 face each
	// other across the cut; with a zero-gain threshold the pass keeps
	// both, with a copy charge above the small access saving it drops one.
	g := graph.NewLine(6)
	p, err := New(g, Options{Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 6)
	for i := range w {
		w[i] = float64(g.Degree(i))
	}
	holders := [][]int{{2, 3}}
	stitched, stats := p.Stitch(holders, StitchOptions{Producer: 0, Halo: 2, CopyCharge: 100, Weights: w})
	if len(stitched[0]) != 1 {
		t.Fatalf("holders after stitch = %v, want one copy dropped", stitched[0])
	}
	if stats.Dropped != 1 || stats.Candidates < 1 {
		t.Errorf("stats = %+v, want 1 drop of >= 1 candidates", stats)
	}
	// The input must not be mutated.
	if !reflect.DeepEqual(holders, [][]int{{2, 3}}) {
		t.Errorf("input holders mutated: %v", holders)
	}
}

func TestStitchNeverDropsLastCopy(t *testing.T) {
	g := graph.NewLine(6)
	p, err := New(g, Options{Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 6)
	for i := range w {
		w[i] = float64(g.Degree(i))
	}
	stitched, _ := p.Stitch([][]int{{3}}, StitchOptions{Producer: 0, Halo: 3, CopyCharge: 1e9, Weights: w})
	if len(stitched[0]) != 1 {
		t.Fatalf("last copy dropped: %v", stitched[0])
	}
}

func TestStitchHaloZeroIsIdentity(t *testing.T) {
	g := gridGraph(t, 4, 4)
	p, err := New(g, Options{Regions: 2, GridRows: 4, GridCols: 4})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 16)
	for i := range w {
		w[i] = float64(g.Degree(i))
	}
	holders := [][]int{{5, 10}, {3}}
	stitched, stats := p.Stitch(holders, StitchOptions{Producer: 0, Halo: 0, CopyCharge: 1e9, Weights: w})
	if !reflect.DeepEqual(stitched, holders) {
		t.Fatalf("halo 0 changed holders: %v -> %v", holders, stitched)
	}
	if stats.Candidates != 0 || stats.Dropped != 0 {
		t.Errorf("halo 0 stats = %+v, want zero work", stats)
	}
}

func TestMultiSourceHopDistances(t *testing.T) {
	g := graph.NewLine(7)
	dist := make([]int, g.NumNodes())
	graph.BFS(g, []int{5, 1}, -1, dist, nil)
	if want := []int{1, 0, 1, 2, 1, 0, 1}; !reflect.DeepEqual(dist, want) {
		t.Fatalf("BFS from {5,1} = %v, want %v", dist, want)
	}
	if order := graph.BFS(g, nil, -1, dist, nil); len(order) != 0 || dist[0] != graph.Unreachable {
		t.Fatalf("no sources: order %v, dist %v", order, dist)
	}
	if graph.BFS(g, []int{-3, 99, 2, 2}, -1, dist, nil); dist[2] != 0 || dist[6] != 4 {
		t.Fatalf("invalid sources not ignored: %v", dist)
	}
}
