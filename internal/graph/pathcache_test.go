package graph

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pool"
)

// randomConnectedGraph builds a deterministic random graph with a spanning
// path plus extra edges, so every node is reachable.
func pcTestGraph(t *testing.T, n int, extra int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(perm[i-1], perm[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(u, v)
		}
	}
	return g
}

// TestPathCacheMatchesNodeCostPaths pins the layer-DAG sweep against the
// uncached oracle with fractional weights, where float rounding is live,
// comparing bit patterns rather than with an epsilon.
func TestPathCacheMatchesNodeCostPaths(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := pcTestGraph(t, 60, 90, seed)
		pc := NewPathCache(g)
		rng := rand.New(rand.NewSource(seed + 100))
		got := make([]float64, g.NumNodes())
		for trial := 0; trial < 3; trial++ {
			w := make([]float64, g.NumNodes())
			for i := range w {
				w[i] = 1 + 10*rng.Float64()
			}
			for src := 0; src < g.NumNodes(); src++ {
				want, _ := g.NodeCostPaths(src, w)
				pc.NodeCostsInto(src, w, got)
				for v := range want {
					if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
						t.Fatalf("seed=%d src=%d v=%d: cost %v != %v", seed, src, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestPathCacheDisconnectedAndBadSource checks every source, in range or
// not, on a graph with two components and an isolated node: the sweep must
// write every cell of a fresh row, Infinite where the oracle has it.
func TestPathCacheDisconnectedAndBadSource(t *testing.T) {
	g := New(5)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(2, 3) // node 4 isolated
	pc := NewPathCache(g)
	w := []float64{1, 2, 3, 4, 5}
	for src := -1; src <= 5; src++ {
		got := make([]float64, 5)
		for v := range got {
			got[v] = math.NaN() // any cell the sweep skips fails the compare
		}
		pc.NodeCostsInto(src, w, got)
		want, _ := g.NodeCostPaths(src, w)
		for v := range want {
			if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
				t.Fatalf("src=%d v=%d: got %v want %v", src, v, got[v], want[v])
			}
		}
	}
}

// TestPathCacheResweepDisconnected checks that unreachable cells stay
// Infinite when a row is swept again after its weights moved, and that an
// out-of-range source resets the whole row to Infinite.
func TestPathCacheResweepDisconnected(t *testing.T) {
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4) // node 5 isolated
	pc := NewPathCache(g)
	w := []float64{2, 3, 4, 5, 6, 7}
	got := make([]float64, 6)
	for src := -1; src <= 6; src++ {
		for _, bump := range []int{1, 4} { // node 4 is unreachable from 0
			pc.NodeCostsInto(src, w, got)
			want, _ := g.NodeCostPaths(src, w)
			for v := range want {
				if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
					t.Fatalf("src=%d v=%d: got %v want %v", src, v, got[v], want[v])
				}
			}
			w[bump] += 2
		}
	}
}

func TestPathCacheHopDistances(t *testing.T) {
	g := pcTestGraph(t, 30, 20, 9)
	pc := NewPathCache(g)
	for src := 0; src < g.NumNodes(); src++ {
		want := g.HopDistances(src)
		got := pc.HopDistances(src)
		for v := range want {
			if want[v] != int(got[v]) {
				t.Fatalf("src=%d v=%d: hop %d != %d", src, v, got[v], want[v])
			}
		}
	}
}

// TestPathCacheVisitOrder checks that each source's visit order holds
// exactly the nodes it reaches, the source first and hops never
// decreasing, on a graph with an unreachable component.
func TestPathCacheVisitOrder(t *testing.T) {
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {4, 5}} {
		_ = g.AddEdge(e[0], e[1])
	}
	pc := NewPathCache(g)
	for src := -1; src <= 6; src++ {
		order := pc.VisitOrder(src)
		if src < 0 || src >= 6 {
			if order != nil {
				t.Fatalf("src=%d: order %v, want nil", src, order)
			}
			continue
		}
		hop := g.HopDistances(src)
		reached := 0
		for _, h := range hop {
			if h != Unreachable {
				reached++
			}
		}
		if len(order) != reached || order[0] != int32(src) {
			t.Fatalf("src=%d: order %v, want the %d reachable nodes from src", src, order, reached)
		}
		last := 0
		for _, v := range order {
			if h := hop[v]; h < last {
				t.Fatalf("src=%d: order %v is not in nondecreasing hops %v", src, order, hop)
			} else {
				last = h
			}
		}
	}
}

func TestPathCacheConcurrentReads(t *testing.T) {
	g := pcTestGraph(t, 40, 50, 5)
	pc := NewPathCache(g)
	w := make([]float64, g.NumNodes())
	for i := range w {
		w[i] = float64(1 + i%7)
	}
	p := pool.New(8)
	defer p.Close()
	// Hammer the lazy-build path from many goroutines at once.
	if err := p.ForEach(context.Background(), 200, func(i int) {
		src := i % g.NumNodes()
		c := make([]float64, g.NumNodes())
		pc.NodeCostsInto(src, w, c)
		if c[src] != 0 {
			t.Errorf("src=%d: cost[src] = %v, want 0", src, c[src])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPathCacheCached checks the growth-audit surface: Cached counts
// built entries, repeat queries reuse them, and a full sweep holds exactly
// one entry per node.
func TestPathCacheCached(t *testing.T) {
	g := pcTestGraph(t, 20, 25, 4)
	pc := NewPathCache(g)
	if got := pc.Cached(); got != 0 {
		t.Fatalf("fresh cache reports %d entries", got)
	}
	w := make([]float64, 20)
	for i := range w {
		w[i] = 1
	}
	row := make([]float64, 20)
	for src := 0; src < 7; src++ {
		pc.NodeCostsInto(src, w, row)
	}
	if got := pc.Cached(); got != 7 {
		t.Fatalf("after 7 sources, Cached() = %d", got)
	}
	for src := 0; src < 20; src++ {
		pc.NodeCostsInto(src, w, row)
		pc.NodeCostsInto(src, w, row)
	}
	if got := pc.Cached(); got != 20 {
		t.Fatalf("after two full sweeps, Cached() = %d, want 20", got)
	}
}
