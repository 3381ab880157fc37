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
//     It runs Prim over the closure in Prim's own order: the edge weights
//     are read once per arc, and only the terminal joining the tree gets a
//     distance row, from a Dijkstra bounded by the keys of the terminals
//     still outside. The trees are bit for bit those of a full Dijkstra row
//     per terminal and an ascending scan of the closure. The construction
//     is sequential, so the pool parameter of MSTApproxScratchCtx is
//     unused; it stays for the callers that pass their solve's pool to
//     every phase.
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
// the key-path improvement: the arc weights, one Dijkstra distance row and
// heap, per-terminal predecessor rows, the Prim keys, edge-set scan
// buffers and the dense union-find. A zero Scratch is ready for use; one
// Scratch serves any number of sequential constructions (the per-chunk
// solve loop reuses one across all chunks), growing to the largest
// (terminals × nodes) shape seen. Concurrent constructions need one
// Scratch each.
type Scratch struct {
	ts     []int
	arcs   graph.Arcs
	dj     graph.DijkstraScratch
	dist   []float64  // the joining terminal's distance row
	pred   []int32    // terminal i's predecessor row at pred[i*n : (i+1)*n]
	keys   []primKey  // per terminal index
	wait   bitset.Set // the terminals outside the tree, by node id
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

// primKey is one terminal's Prim state: whether it is in the tree and,
// while it is outside, its least distance from a tree terminal and that
// terminal's index (-1 while none reaches it).
type primKey struct {
	d    float64
	from int32
	in   bool
}

// uniqueTerminals fills scr.ts with the sorted, deduplicated terminals.
func (scr *Scratch) uniqueTerminals(terminals []int) []int {
	scr.ts = append(scr.ts[:0], terminals...)
	slices.Sort(scr.ts)
	scr.ts = slices.Compact(scr.ts)
	return scr.ts
}

// startPrim sizes the closure construction's buffers for terminals ts on
// n nodes and resets them to the empty tree: every key +Inf from no
// terminal, every terminal outside and waited for.
func (scr *Scratch) startPrim(ts []int, n int) {
	k := len(ts)
	if cap(scr.pred) < k*n {
		scr.pred = make([]int32, k*n)
	}
	scr.pred = scr.pred[:k*n]
	if cap(scr.dist) < n {
		scr.dist = make([]float64, n)
	}
	scr.dist = scr.dist[:n]
	scr.dj.Grow(n)
	if cap(scr.keys) < k {
		scr.keys = make([]primKey, k)
	}
	scr.keys = scr.keys[:k]
	for i := range scr.keys {
		scr.keys[i] = primKey{d: graph.Infinite, from: -1}
	}
	scr.mst = slices.Grow(scr.mst[:0], k-1)
	scr.wait = scr.wait.Grow(n)
	for _, t := range ts {
		scr.wait.Add(t)
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
	return MSTApproxScratchCtx(context.Background(), g, w, terminals, nil, nil)
}

// MSTApproxScratchCtx is MSTApprox with cancellation via ctx, checked
// before each terminal joins the closure tree, and with every
// intermediate buffer carved out of scr (nil allocates a transient
// scratch): a warm scratch makes the construction allocate only the
// returned Tree.Edges. The construction is sequential: each joining
// terminal's bounded search depends on the keys the previous ones left,
// so p is unused. It stays in the signature for the callers that thread
// their solve's pool through every phase.
//
// It evaluates w once per arc (2·NumEdges calls) and runs Prim over the
// terminal metric closure in Prim's own order. Terminal 0 (the smallest)
// starts the tree. Each terminal outside keeps one key: its least
// distance from a tree terminal, ties going to the lowest from-index —
// the pair an ascending (from, to) scan of full closure rows picks with a
// strict <. The terminal with the least (key, from, index) joins next, and
// only the joining terminal's distance row is computed, by a Dijkstra
// that stops once every terminal outside has settled or once the
// distance it would settle exceeds the largest key outside. A settled
// node's distance and predecessor never change (strict < relaxation,
// weights ≥ 0), and a node past the bound can neither lower a key nor tie
// it, so every key, closure edge, expanded path and returned tree is bit
// for bit the one k full Dijkstra rows and the O(k³) scan give.
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

	// Prim's MST over the terminal metric closure. The construction must
	// be deterministic because placements are replayed byte-for-byte in
	// WAL recovery and compared against the sequential engine in
	// determinism tests.
	scr.arcs.Fill(g, w)
	scr.startPrim(ts, n)
	mst := scr.mst[:0]
	for c := 0; c >= 0; {
		if err := ctx.Err(); err != nil {
			scr.mst = mst
			return Tree{}, err
		}
		c = scr.join(c, ts, len(ts)-1-len(mst))
		if c >= 0 {
			mst = append(mst, closureEdge{from: scr.keys[c].from, to: int32(c)})
		}
	}
	scr.mst = mst
	if len(mst) < len(ts)-1 {
		return Tree{}, fmt.Errorf("%w: %v", ErrDisconnected, ts)
	}

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
	edges = scr.subgraphMST(edges, n)
	edges = scr.pruneLeaves(edges, ts, n)

	cost := 0.0
	for _, e := range edges {
		cost += scr.arcs.Weight(e.U, e.V)
	}
	return Tree{Edges: append([]graph.Edge(nil), edges...), Cost: cost}, nil
}

// join is one Prim step over the terminal metric closure: terminal c
// joins the tree, the distances its bounded Dijkstra row settles update
// the keys of the `outside` terminals not in the tree (a lower distance,
// or an equal one from a lower index, replaces the key), and the next
// terminal to join is returned: the least (key, from, index), or -1 when
// no terminal outside is reachable.
func (scr *Scratch) join(c int, ts []int, outside int) int {
	keys := scr.keys
	keys[c].in = true
	scr.wait.Remove(ts[c])
	if outside == 0 {
		return -1
	}
	bound := 0.0
	for _, k := range keys {
		if !k.in && k.d > bound {
			bound = k.d
		}
	}
	n := len(scr.dist)
	scr.arcs.ShortestPaths(ts[c], scr.dist, scr.pred[c*n:(c+1)*n], &scr.dj,
		&graph.DijkstraStop{Bound: bound, Wait: scr.wait, Waiting: outside})
	next, best := -1, primKey{d: graph.Infinite}
	for i := range keys {
		k := &keys[i]
		if k.in {
			continue
		}
		// An outside terminal the search did not settle is farther than
		// bound ≥ k.d, so it changes nothing here.
		if d := scr.dist[ts[i]]; d < k.d || d == k.d && int32(c) < k.from {
			k.d, k.from = d, int32(c)
		}
		if k.d < best.d || next >= 0 && k.d == best.d && k.from < best.from {
			next, best = i, *k
		}
	}
	return next
}

// subgraphMST returns the minimum spanning forest of the given edge set
// (Kruskal over the dense union-find), written into scr.kept. The input
// order is preserved in scr.edges; the result is ordered by ascending
// (weight, U, V) — the order Kruskal accepts edges in — with the weights
// read from scr.arcs.
func (scr *Scratch) subgraphMST(edges []graph.Edge, n int) []graph.Edge {
	sorted := append(scr.kept[:0], edges...)
	slices.SortFunc(sorted, func(a, b graph.Edge) int {
		wa, wb := scr.arcs.Weight(a.U, a.V), scr.arcs.Weight(b.U, b.V)
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

func uniqueSorted(xs []int) []int {
	out := append([]int(nil), xs...)
	slices.Sort(out)
	return slices.Compact(out)
}
