// Package steiner builds Steiner trees over the network graph. Phase 2 of
// the paper's Algorithm 1 connects the chosen caching nodes (the ADMIN set)
// and the producer with a Steiner tree whose edges are charged the
// contention-scaled edge cost c_e.
//
// Two constructions are provided:
//
//   - MSTApprox: the classic metric-closure MST 2-approximation (polynomial,
//     used inside the approximation algorithm; the paper cites the 1.55-ratio
//     algorithm of Robins–Zelikovsky [25], which refines the same MST
//     skeleton — the skeleton is what matters for the evaluation's shape).
//   - ExactCost: the Dreyfus–Wagner dynamic program, exponential in the
//     number of terminals, used by the exact ("Brtf") baseline on small
//     instances.
package steiner

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/pool"
)

// ErrDisconnected reports terminals that cannot be connected in the graph.
var ErrDisconnected = errors.New("steiner: terminals not connected")

// Tree is a Steiner tree: the set of graph edges used and their total cost.
type Tree struct {
	Edges []graph.Edge
	Cost  float64
}

// Nodes returns the sorted set of nodes spanned by the tree.
func (t Tree) Nodes() []int {
	out := make([]int, 0, 2*len(t.Edges))
	for _, e := range t.Edges {
		out = append(out, e.U, e.V)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// closureEdge is one Prim-selected edge of the terminal metric closure,
// identified by terminal indices (positions in the sorted terminal slice).
type closureEdge struct{ from, to int32 }

// Scratch owns the reusable buffers of the metric-closure construction and
// the key-path improvement: per-terminal distance/predecessor rows, one
// Dijkstra arena per pool worker, Prim and Kruskal state, edge-set scan
// buffers and the dense union-find. A zero Scratch is ready for use; one
// Scratch serves any number of sequential constructions (the per-chunk
// solve loop reuses one across all chunks), growing to the largest
// (terminals × nodes, workers) shape seen. Concurrent constructions need
// one Scratch each.
type Scratch struct {
	ts     []int
	dist   []float64 // terminal i's distance row at dist[i*n : (i+1)*n]
	pred   []int32
	dj     []graph.DijkstraScratch // one per pool worker
	inTree []bool                  // per terminal index
	mst    []closureEdge
	edges  []graph.Edge
	kept   []graph.Edge
	uf     []int32 // union-find parent per graph node, -1 = isolated root
	deg    []int32
	isTerm bitset.Set
	// Key-path improvement (Improve) state.
	idist   []float64
	ipred   []int32
	visited []bool
	side    []int8
	iheap   []exchangeItem
}

// uniqueTerminals fills scr.ts with the sorted, deduplicated terminals.
func (scr *Scratch) uniqueTerminals(terminals []int) []int {
	scr.ts = append(scr.ts[:0], terminals...)
	slices.Sort(scr.ts)
	scr.ts = slices.Compact(scr.ts)
	return scr.ts
}

// growPaths sizes the per-terminal path rows and per-worker Dijkstra arenas.
func (scr *Scratch) growPaths(k, n, workers int) {
	if cap(scr.dist) < k*n {
		scr.dist = make([]float64, k*n)
		scr.pred = make([]int32, k*n)
	}
	scr.dist = scr.dist[:k*n]
	scr.pred = scr.pred[:k*n]
	for len(scr.dj) < workers {
		scr.dj = append(scr.dj, graph.DijkstraScratch{})
	}
}

// resetUF returns the dense union-find parent array, reset to singletons.
func (scr *Scratch) resetUF(n int) []int32 {
	if cap(scr.uf) < n {
		scr.uf = make([]int32, n)
	}
	scr.uf = scr.uf[:n]
	for i := range scr.uf {
		scr.uf[i] = int32(i)
	}
	return scr.uf
}

func ufFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]] // path halving
		x = parent[x]
	}
	return x
}

// ufUnion merges the sets of a and b, reporting whether they were distinct.
func ufUnion(parent []int32, a, b int32) bool {
	ra, rb := ufFind(parent, a), ufFind(parent, b)
	if ra == rb {
		return false
	}
	parent[ra] = rb
	return true
}

// MSTApprox returns a Steiner tree connecting terminals using the
// metric-closure MST 2-approximation:
//
//  1. compute shortest paths between terminals under w,
//  2. build the MST of the terminal metric closure,
//  3. expand MST edges into their underlying paths,
//  4. take the MST of the resulting subgraph and prune non-terminal leaves.
//
// Zero or one terminal yields an empty tree with cost 0.
func MSTApprox(g *graph.Graph, w graph.EdgeWeightFunc, terminals []int) (Tree, error) {
	return MSTApproxCtx(context.Background(), g, w, terminals, nil)
}

// MSTApproxCtx is MSTApprox with the per-terminal Dijkstra fan-out spread
// over p and cancellation via ctx. Each terminal's distance and predecessor
// vectors land in that terminal's own slot, so the tree is identical to the
// sequential construction.
func MSTApproxCtx(ctx context.Context, g *graph.Graph, w graph.EdgeWeightFunc, terminals []int, p *pool.Pool) (Tree, error) {
	return MSTApproxScratchCtx(ctx, g, w, terminals, p, nil)
}

// MSTApproxScratchCtx is MSTApproxCtx with every intermediate buffer carved
// out of scr (nil allocates a transient scratch): a warm scratch makes the
// construction allocate only the returned Tree.Edges. The tree is
// byte-identical to MSTApproxCtx at any pool width.
func MSTApproxScratchCtx(ctx context.Context, g *graph.Graph, w graph.EdgeWeightFunc, terminals []int, p *pool.Pool, scr *Scratch) (Tree, error) {
	if scr == nil {
		scr = &Scratch{}
	}
	ts := scr.uniqueTerminals(terminals)
	if len(ts) <= 1 {
		return Tree{}, ctx.Err()
	}
	n := g.NumNodes()
	for _, t := range ts {
		if t < 0 || t >= n {
			return Tree{}, fmt.Errorf("steiner: terminal %d out of range [0,%d)", t, n)
		}
	}

	// Shortest paths from every terminal; each worker relaxes over its own
	// heap arena, each terminal writes only its own rows.
	scr.growPaths(len(ts), n, p.Workers())
	err := p.ForEachW(ctx, len(ts), func(wk, i int) {
		g.DijkstraInto(ts[i], w, scr.dist[i*n:(i+1)*n], scr.pred[i*n:(i+1)*n], &scr.dj[wk])
	})
	if err != nil {
		return Tree{}, err
	}

	// Prim's MST over the terminal metric closure. Candidates scan in
	// ascending terminal order with a strict < so ties break toward the
	// smallest (from, to) pair — the construction must be deterministic
	// because placements are replayed byte-for-byte in WAL recovery and
	// compared against the sequential engine in determinism tests.
	inTree := growBools(scr.inTree, len(ts))
	scr.inTree = inTree
	inTree[0] = true
	mst := scr.mst[:0]
	for count := 1; count < len(ts); count++ {
		bestFrom, bestTo := -1, -1
		bestD := graph.Infinite
		for ai := range ts {
			if !inTree[ai] {
				continue
			}
			row := scr.dist[ai*n : (ai+1)*n]
			for bi := range ts {
				if inTree[bi] {
					continue
				}
				if d := row[ts[bi]]; d < bestD {
					bestD, bestFrom, bestTo = d, ai, bi
				}
			}
		}
		if bestTo == -1 {
			scr.mst = mst
			return Tree{}, fmt.Errorf("%w: %v", ErrDisconnected, ts)
		}
		mst = append(mst, closureEdge{from: int32(bestFrom), to: int32(bestTo)})
		inTree[bestTo] = true
	}
	scr.mst = mst

	// Expand closure edges into graph edges by walking the predecessor rows
	// backward; canonical sort + adjacent dedup replaces the old edge set
	// map and yields the identical sorted unique set.
	edges := scr.edges[:0]
	for _, ce := range mst {
		pred := scr.pred[int(ce.from)*n : (int(ce.from)+1)*n]
		src := ts[ce.from]
		for v := ts[ce.to]; v != src; {
			u := pred[v]
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
	scr.edges = edges

	// MST of the expanded subgraph (drops any cycles from overlapping
	// paths), then prune non-terminal leaves. The (weight, U, V) Kruskal
	// order is total over the unique edge set, so the result does not
	// depend on the pre-sort permutation.
	edges = scr.subgraphMST(edges, w, n)
	edges = scr.pruneLeaves(edges, ts, n)

	cost := 0.0
	for _, e := range edges {
		cost += w(e.U, e.V)
	}
	return Tree{Edges: append([]graph.Edge(nil), edges...), Cost: cost}, nil
}

// subgraphMST returns the minimum spanning forest of the given edge set
// (Kruskal over the dense union-find), written into scr.kept. The input
// order is preserved in scr.edges; the result is ordered by ascending
// (weight, U, V) — the order Kruskal accepts edges in.
func (scr *Scratch) subgraphMST(edges []graph.Edge, w graph.EdgeWeightFunc, n int) []graph.Edge {
	sorted := append(scr.kept[:0], edges...)
	slices.SortFunc(sorted, func(a, b graph.Edge) int {
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
	uf := scr.resetUF(n)
	out := sorted[:0] // accepted prefix compacts in place over the sorted buffer
	for _, e := range sorted {
		if ufUnion(uf, int32(e.U), int32(e.V)) {
			out = append(out, e)
		}
	}
	scr.kept = sorted[:0]
	return out
}

// pruneLeaves repeatedly removes degree-1 nodes that are not terminals,
// compacting the edge slice in place.
func (scr *Scratch) pruneLeaves(edges []graph.Edge, terminals []int, n int) []graph.Edge {
	scr.isTerm = scr.isTerm.Grow(n)
	for _, t := range terminals {
		scr.isTerm.Add(t)
	}
	if cap(scr.deg) < n {
		scr.deg = make([]int32, n)
	}
	deg := scr.deg[:n]
	for {
		for i := range deg {
			deg[i] = 0
		}
		for _, e := range edges {
			deg[e.U]++
			deg[e.V]++
		}
		kept := edges[:0]
		removed := false
		for _, e := range edges {
			if (deg[e.U] == 1 && !scr.isTerm.Has(e.U)) || (deg[e.V] == 1 && !scr.isTerm.Has(e.V)) {
				removed = true
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
		if !removed {
			return edges
		}
	}
}

// growBools returns a cleared bool slice of length n, reusing b's storage
// when possible.
func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

func uniqueSorted(xs []int) []int {
	out := append([]int(nil), xs...)
	slices.Sort(out)
	return slices.Compact(out)
}
