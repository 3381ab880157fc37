package graph

import (
	"math"
	"math/rand"
	"testing"
)

// TestRepairNodeCostPaths drives random integer-weight perturbations through
// RepairNodeCostPaths and checks after every batch that the repaired row is
// byte-identical to a fresh sweep with the new weights — the contract the
// incremental cost model is built on.
func TestRepairNodeCostPaths(t *testing.T) {
	for _, seed := range []int64{2, 13, 77} {
		g := pcTestGraph(t, 50, 70, seed)
		n := g.NumNodes()
		pc := NewPathCache(g)
		rng := rand.New(rand.NewSource(seed + 1000))

		// Integer-valued weights, like the contention model's deg·(1+S).
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + rng.Intn(9))
		}

		cost := make([][]float64, n)
		pred := make([][]int32, n)
		for src := 0; src < n; src++ {
			cost[src], pred[src] = pc.NodeCostPaths(src, w)
		}

		scratch := NewRepairScratch(n)
		delta := make([]float64, n)
		for batch := 0; batch < 40; batch++ {
			k := 1 + rng.Intn(4)
			changed := make([]int, 0, k)
			for len(changed) < k {
				node := rng.Intn(n)
				if delta[node] != 0 {
					continue
				}
				// Mix increases and decreases, keeping weights positive.
				d := float64(1 + rng.Intn(3))
				if rng.Intn(2) == 0 && w[node]-d >= 1 {
					d = -d
				}
				delta[node] = d
				w[node] += d
				changed = append(changed, node)
			}
			for src := 0; src < n; src++ {
				touched := pc.RepairNodeCostPaths(src, w, changed, delta, cost[src], pred[src], scratch)
				if touched > n {
					t.Fatalf("seed=%d batch=%d src=%d: repair touched %d cells, more than a full sweep", seed, batch, src, touched)
				}
				wantC, wantP := g.NodeCostPaths(src, w)
				for v := range wantC {
					if math.Float64bits(cost[src][v]) != math.Float64bits(wantC[v]) {
						t.Fatalf("seed=%d batch=%d src=%d v=%d (changed %v): cost %v != %v",
							seed, batch, src, v, changed, cost[src][v], wantC[v])
					}
					if pred[src][v] != wantP[v] {
						t.Fatalf("seed=%d batch=%d src=%d v=%d (changed %v): pred %d != %d",
							seed, batch, src, v, changed, pred[src][v], wantP[v])
					}
				}
			}
			for _, node := range changed {
				delta[node] = 0
			}
		}
	}
}

// TestRepairNodeCostPathsDisconnected checks that unreachable cells stay
// Infinite through repairs and that out-of-range sources are a no-op.
func TestRepairNodeCostPathsDisconnected(t *testing.T) {
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4) // node 5 isolated
	pc := NewPathCache(g)
	w := []float64{2, 3, 4, 5, 6, 7}
	cost, pred := pc.NodeCostPaths(0, w)
	scratch := NewRepairScratch(6)

	delta := make([]float64, 6)
	delta[1], delta[4] = 2, 1 // node 4 is unreachable from 0
	w[1] += 2
	w[4] += 1
	pc.RepairNodeCostPaths(0, w, []int{1, 4}, delta, cost, pred, scratch)
	wantC, wantP := g.NodeCostPaths(0, w)
	for v := range wantC {
		if math.Float64bits(cost[v]) != math.Float64bits(wantC[v]) || pred[v] != wantP[v] {
			t.Fatalf("v=%d: got (%v,%d) want (%v,%d)", v, cost[v], pred[v], wantC[v], wantP[v])
		}
	}

	if got := pc.RepairNodeCostPaths(-1, w, []int{1}, delta, cost, pred, scratch); got != 0 {
		t.Fatalf("repair with bad source touched %d cells", got)
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
	for src := 0; src < 7; src++ {
		pc.NodeCostPaths(src, w)
	}
	if got := pc.Cached(); got != 7 {
		t.Fatalf("after 7 sources, Cached() = %d", got)
	}
	for src := 0; src < 20; src++ {
		pc.NodeCostPaths(src, w)
		pc.NodeCostPaths(src, w)
	}
	if got := pc.Cached(); got != 20 {
		t.Fatalf("after two full sweeps, Cached() = %d, want 20", got)
	}
}
