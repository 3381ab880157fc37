// Package partition cuts a topology into k connected regions so the fair
// caching solve can shard geographically: each region is solved by its own
// engine against its own region-local cost matrices (O(nᵢ²) instead of the
// global O(N²)), and the per-region placements are stitched back together
// with a bounded boundary-reconciliation pass (stitch.go). Grid topologies
// are cut into near-square tiles; arbitrary graphs are cut by greedy
// multi-seed BFS growth from farthest-point seeds. Both cutters are
// deterministic: the same graph and options always produce the same cut.
package partition

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// MinRegionNodes is the smallest region the cutters will emit: the
// per-region solver (internal/core) requires at least 2 nodes, so smaller
// fragments are merged into an adjacent region.
const MinRegionNodes = 2

// Errors returned by New.
var (
	// ErrDisconnected rejects topologies where some node could never be
	// assigned to a region reachable from its producer.
	ErrDisconnected = errors.New("partition: topology must be connected")
	// ErrBadRegions rejects region counts outside [2, N/MinRegionNodes].
	ErrBadRegions = errors.New("partition: bad region count")
)

// Options configures the cut.
type Options struct {
	// Regions is the target region count k (>= 2). The cutters treat it as
	// a target: tiny fragments are merged away and grid tiling may round
	// to a nearby tile grid, so len(Partition.Regions) can differ slightly.
	Regions int
	// GridRows/GridCols, when both positive and their product equals the
	// node count, declare the graph a row-major grid and select the
	// tile cutter; otherwise the BFS-growth cutter runs.
	GridRows int
	GridCols int
}

// Region is one connected piece of the cut.
type Region struct {
	// Nodes lists the region's members as original node ids, ascending.
	Nodes []int
	// Sub is the induced subtopology over Nodes, renumbered densely in
	// Nodes order: local id i is original node Nodes[i].
	Sub *graph.Graph
}

// Partition is the outcome of a cut: the regions, the assignment of every
// node, and the frontier structure the stitch pass reconciles across.
type Partition struct {
	g *graph.Graph
	// Regions holds the connected pieces, ordered by smallest node id.
	Regions []Region
	// RegionOf maps every original node to its region index.
	RegionOf []int
	// CutEdges lists the edges crossing region boundaries, canonical and
	// sorted.
	CutEdges []graph.Edge
	// Boundary lists the endpoints of cut edges (the frontier nodes),
	// ascending and deduplicated.
	Boundary []int
}

// Graph returns the full topology the partition was cut from.
func (p *Partition) Graph() *graph.Graph { return p.g }

// New cuts g into about opts.Regions connected regions. The graph must be
// connected (ErrDisconnected) and the region count must leave every region
// at least MinRegionNodes nodes (ErrBadRegions).
func New(g *graph.Graph, opts Options) (*Partition, error) {
	if g == nil || g.NumNodes() < 2*MinRegionNodes {
		return nil, fmt.Errorf("%w: need at least %d nodes to split", ErrBadRegions, 2*MinRegionNodes)
	}
	if !g.Connected() {
		return nil, ErrDisconnected
	}
	n := g.NumNodes()
	k := opts.Regions
	if k < 2 || k > n/MinRegionNodes {
		return nil, fmt.Errorf("%w: %d regions over %d nodes (want 2..%d)", ErrBadRegions, k, n, n/MinRegionNodes)
	}
	var labels []int
	if opts.GridRows > 0 && opts.GridCols > 0 && opts.GridRows*opts.GridCols == n {
		labels = gridTileLabels(opts.GridRows, opts.GridCols, k)
	} else {
		labels = growthLabels(g, k)
	}
	mergeSmall(g, labels)
	return fromLabels(g, labels)
}

// gridTileLabels cuts a rows×cols row-major grid into a tr×tc tile grid
// approximating k tiles. Every tile is a sub-rectangle, hence connected.
func gridTileLabels(rows, cols, k int) []int {
	tr, tc := tileShape(rows, cols, k)
	rowBand := bandIndex(rows, tr)
	colBand := bandIndex(cols, tc)
	labels := make([]int, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			labels[r*cols+c] = rowBand[r]*tc + colBand[c]
		}
	}
	return labels
}

// tileShape picks the tile grid tr×tc closest to k tiles, preferring
// square-ish tiles (matching the aspect ratio of the grid) among ties.
func tileShape(rows, cols, k int) (tr, tc int) {
	tr, tc = 1, min(k, cols)
	bestScore := -1
	for r := 1; r <= rows && r <= k; r++ {
		c := (k + r - 1) / r
		if c > cols {
			continue
		}
		// Primary: tile count near k. Secondary: band shapes near square,
		// i.e. rows/r close to cols/c, scored cross-multiplied to stay in
		// integers.
		score := abs(r*c-k)*(rows*cols) + abs(rows*c-cols*r)
		if bestScore < 0 || score < bestScore {
			tr, tc, bestScore = r, c, score
		}
	}
	return tr, tc
}

// bandIndex splits extent positions into near-equal contiguous bands and
// returns each position's band.
func bandIndex(extent, bands int) []int {
	idx := make([]int, extent)
	for b := 0; b < bands; b++ {
		lo, hi := b*extent/bands, (b+1)*extent/bands
		for p := lo; p < hi; p++ {
			idx[p] = b
		}
	}
	return idx
}

// growthLabels cuts an arbitrary connected graph: k seeds are picked by
// farthest-point sampling, then the regions claim unassigned nodes one BFS
// layer per round, in region order — a deterministic label propagation
// that keeps every region connected and roughly balanced. That is one
// multi-source BFS seeded in region order, where each node joins the
// region of the node that reached it: its earliest-visited neighbour one
// layer closer to the seeds.
func growthLabels(g *graph.Graph, k int) []int {
	n := g.NumNodes()
	seeds := farthestSeeds(g, k)
	hops := make([]int, n)
	order := graph.BFS(g, seeds, -1, hops, nil)
	visited := make([]int, n)
	for i, v := range order {
		visited[v] = i
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	for r, s := range seeds {
		labels[s] = r
	}
	for _, v := range order[len(seeds):] {
		from := -1
		for _, u := range g.Neighbors(v) {
			if hops[u] == hops[v]-1 && (from == -1 || visited[u] < visited[from]) {
				from = u
			}
		}
		labels[v] = labels[from]
	}
	return labels
}

// farthestSeeds returns k pairwise-distant seed nodes: the first is the
// node farthest from node 0 (a peripheral node, via the classic 2-sweep),
// and each next seed maximises the hop distance to all previous seeds.
// Ties resolve to the lowest node id.
func farthestSeeds(g *graph.Graph, k int) []int {
	first := argmax(g.HopDistances(0))
	seeds := []int{first}
	minDist := g.HopDistances(first)
	for len(seeds) < k {
		next := argmax(minDist)
		seeds = append(seeds, next)
		for i, d := range g.HopDistances(next) {
			if d != graph.Unreachable && (minDist[i] == graph.Unreachable || d < minDist[i]) {
				minDist[i] = d
			}
		}
	}
	return seeds
}

// argmax returns the index of the maximum value, lowest index on ties.
func argmax(xs []int) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// mergeSmall relabels regions smaller than MinRegionNodes into the
// adjacent region they share the most cut edges with (lowest label on
// ties), in place. Merging a fragment into an adjacent connected region
// keeps the union connected.
func mergeSmall(g *graph.Graph, labels []int) {
	for {
		sizes := map[int]int{}
		for _, l := range labels {
			sizes[l]++
		}
		small := -1
		for l, sz := range sizes {
			if sz < MinRegionNodes && (small == -1 || sizes[l] < sizes[small] || (sizes[l] == sizes[small] && l < small)) {
				small = l
			}
		}
		if small == -1 || len(sizes) <= 1 {
			return
		}
		// Count this fragment's edges into each neighboring region.
		links := map[int]int{}
		for _, e := range g.Edges() {
			lu, lv := labels[e.U], labels[e.V]
			if lu == small && lv != small {
				links[lv]++
			}
			if lv == small && lu != small {
				links[lu]++
			}
		}
		into := -1
		for l, c := range links {
			if into == -1 || c > links[into] || (c == links[into] && l < into) {
				into = l
			}
		}
		if into == -1 {
			return // isolated fragment: impossible on a connected graph
		}
		for i, l := range labels {
			if l == small {
				labels[i] = into
			}
		}
	}
}

// fromLabels materialises a Partition from per-node labels, compacting
// label values to dense region indexes ordered by smallest member id.
func fromLabels(g *graph.Graph, labels []int) (*Partition, error) {
	index := map[int]int{}
	var members [][]int
	for v, l := range labels {
		r, ok := index[l]
		if !ok {
			r = len(members)
			index[l] = r
			members = append(members, nil)
		}
		members[r] = append(members[r], v)
	}
	p := &Partition{
		g:        g,
		Regions:  make([]Region, len(members)),
		RegionOf: make([]int, g.NumNodes()),
	}
	for r, nodes := range members {
		sub, orig := g.InducedSubgraph(nodes)
		if !sub.Connected() || sub.NumNodes() < MinRegionNodes {
			return nil, fmt.Errorf("partition: internal error: region %d (%d nodes) is not a valid subtopology", r, sub.NumNodes())
		}
		p.Regions[r] = Region{Nodes: orig, Sub: sub}
		for _, v := range orig {
			p.RegionOf[v] = r
		}
	}
	boundary := map[int]bool{}
	for _, e := range g.Edges() {
		if p.RegionOf[e.U] != p.RegionOf[e.V] {
			p.CutEdges = append(p.CutEdges, e)
			boundary[e.U] = true
			boundary[e.V] = true
		}
	}
	p.Boundary = make([]int, 0, len(boundary))
	for v := range boundary {
		p.Boundary = append(p.Boundary, v)
	}
	slices.Sort(p.Boundary)
	return p, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
