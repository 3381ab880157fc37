// Package faircache is a fair caching library for peer data sharing in
// pervasive edge computing environments, reproducing the system of
// Huang et al., "Fair Caching Algorithms for Peer Data Sharing in
// Pervasive Edge Computing Environments" (ICDCS 2017).
//
// Edge devices in a multi-hop wireless network want to share data chunks
// originating at a producer device. Caching chunks on peer devices
// improves availability and latency, but because every device belongs to a
// different owner, the caching load must be fair. This package places
// chunks so as to minimise a joint objective of per-node Fairness Degree
// Cost (storage pressure), path contention cost for the accessing phase,
// and Steiner-tree contention cost for the dissemination phase — the sum
// of per-chunk Connected Facility Location problems.
//
// Four placement algorithms are provided:
//
//   - Approximate: the paper's primal-dual approximation algorithm
//     (Algorithm 1), preserving the 6.55 approximation ratio.
//   - Distribute: the paper's distributed protocol (Algorithm 2) in which
//     devices exchange NPI/CC/TIGHT/SPAN/FREEZE/NADMIN/BADMIN messages
//     within a bounded hop range.
//   - HopCountBaseline and ContentionBaseline: the two wireless caching
//     baselines the paper compares against ([13] and [4]), including the
//     multi-item subgraph extension of Sec. V-B.
//   - Optimal: an exact branch-and-bound solver standing in for the
//     paper's brute-force (PuLP) reference on small networks.
//
// Results expose the paper's evaluation metrics: total contention cost
// split by phase, Gini coefficient, p-percentile fairness and the storage
// concentration curve.
package faircache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Topology is a connected multi-hop wireless network over nodes 0..N-1.
type Topology struct {
	g *graph.Graph
	// gridRows/gridCols record the shape of a Grid-built topology (0
	// otherwise) so the partitioner can use exact tile cuts on grids.
	gridRows, gridCols int
}

// Errors returned by topology constructors and solvers. ErrNotConnected
// is itself an ErrBadArgument (errors.Is matches both), since a
// disconnected topology is invalid input everywhere it can appear.
var (
	ErrBadArgument  = errors.New("faircache: bad argument")
	ErrNotConnected = fmt.Errorf("%w: topology must be connected", ErrBadArgument)
)

// Grid returns a rows×cols grid topology, the primary network model of
// the paper's evaluation. Nodes are numbered row-major.
func Grid(rows, cols int) (*Topology, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("%w: grid %dx%d too small", ErrBadArgument, rows, cols)
	}
	return &Topology{g: graph.NewGrid(rows, cols), gridRows: rows, gridCols: cols}, nil
}

// Random returns a connected random geometric topology of n >= 2 nodes in
// the unit square with the standard connectivity radius, seeded
// deterministically — the paper's "random network" model.
func Random(n int, seed int64) (*Topology, error) {
	return RandomWithRadius(n, graph.DefaultRadius(n), seed)
}

// RandomWithRadius is Random with an explicit connectivity radius.
func RandomWithRadius(n int, radius float64, seed int64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: random topology needs at least 2 nodes, got %d", ErrBadArgument, n)
	}
	rg := graph.RandomGeometric{N: n, Radius: radius}
	g, _, err := rg.Generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadArgument, err)
	}
	return &Topology{g: g}, nil
}

// Line returns a path topology 0-1-...-(n-1), e.g. vehicles along a road.
func Line(n int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: line needs at least 2 nodes, got %d", ErrBadArgument, n)
	}
	return &Topology{g: graph.NewLine(n)}, nil
}

// Ring returns a cycle topology over n nodes (n >= 3).
func Ring(n int) (*Topology, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: ring needs at least 3 nodes, got %d", ErrBadArgument, n)
	}
	return &Topology{g: graph.NewRing(n)}, nil
}

// Clustered returns a crowd topology: `clusters` dense groups of `size`
// devices each (at least 2 devices in all), joined by sparse bridges —
// the structure of the paper's outdoor-event scenario (groups around
// stages and food stands).
func Clustered(clusters, size int, seed int64) (*Topology, error) {
	if clusters < 1 || size < 1 || clusters*size < 2 {
		return nil, fmt.Errorf("%w: clustered topology of %d clusters of %d nodes too small", ErrBadArgument, clusters, size)
	}
	c := graph.Clustered{
		Clusters:  clusters,
		Size:      size,
		IntraProb: 0.4,
		Bridges:   2,
	}
	g, err := c.Generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadArgument, err)
	}
	return &Topology{g: g}, nil
}

// FromLinks builds a topology of n >= 2 nodes from an explicit link list.
func FromLinks(n int, links [][2]int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: topology needs at least 2 nodes, got %d", ErrBadArgument, n)
	}
	g := graph.New(n)
	for _, l := range links {
		if err := g.AddEdge(l[0], l[1]); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadArgument, err)
		}
	}
	if !g.Connected() {
		return nil, ErrNotConnected
	}
	return &Topology{g: g}, nil
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return t.g.NumNodes() }

// NumLinks returns the link count.
func (t *Topology) NumLinks() int { return t.g.NumEdges() }

// Degree returns a node's neighbor count (its node contention cost).
func (t *Topology) Degree(v int) int { return t.g.Degree(v) }

// Neighbors returns a copy of a node's neighbor list.
func (t *Topology) Neighbors(v int) []int {
	return append([]int(nil), t.g.Neighbors(v)...)
}

// CentralNode returns the node with minimum total hop distance to all
// others — a natural producer choice on random topologies.
func (t *Topology) CentralNode() int { return graph.CentralNode(t.g) }

// HopDistances returns the BFS hop distance from src to every node
// (0 for src itself). It is the routing metric a placement service needs
// to answer "which holder is nearest to this requester".
func (t *Topology) HopDistances(src int) ([]int, error) {
	if src < 0 || src >= t.g.NumNodes() {
		return nil, fmt.Errorf("%w: node %d out of range [0,%d)", ErrBadArgument, src, t.g.NumNodes())
	}
	return t.g.HopDistances(src), nil
}

// Options tunes the placement algorithms. The zero value means "paper
// defaults" for every field.
type Options struct {
	// Capacity is the per-node cache capacity in chunks (default 5, the
	// paper's setting).
	Capacity int
	// Capacities, when non-nil, sets heterogeneous per-node capacities
	// and overrides Capacity (devices contribute different amounts of
	// storage — the fairness model's motivating setting).
	Capacities []int
	// AlphaStep is U_α, the dual connection-bid increment (default 1).
	AlphaStep float64
	// GammaStep is U_γ, the relay-bid increment (default: calibrated
	// 2.5 centralized / 2 distributed).
	GammaStep float64
	// SpanQuorum is M, the SPAN support needed to open a caching node
	// (default 2).
	SpanQuorum int
	// FairnessWeight scales the Fairness Degree Cost term (default 1;
	// set negative to request 0 for contention-only ablations).
	FairnessWeight float64
	// HopLimit bounds distributed control messages (default 2); used
	// only by Distribute.
	HopLimit int
	// Lambda is the per-cache cost of the baselines; 0 selects the
	// calibrated RecommendedLambda. Used only by the baselines.
	Lambda float64
	// SearchBudget caps the exact solver's branch-and-bound nodes per
	// chunk (0 = exhaustive). Used only by Optimal.
	SearchBudget int
	// SearchWidth caps the exact solver's caching-set size per chunk
	// (0 = the exact Steiner routine's limit). Used only by Optimal.
	SearchWidth int
	// BatteryLevels holds per-node battery levels in (0, 1] for the
	// battery-fairness extension (paper footnote 1); nil means all full.
	// Only meaningful with BatteryWeight > 0. Appx (global and
	// partitioned), Dist and online publications honour it; Brtf and the
	// baselines ignore it.
	BatteryLevels []float64
	// BatteryWeight scales the battery Fairness Degree Cost in the
	// weighted summation with the storage term (default 0: disabled).
	// Appx (global and partitioned), Dist and online publications honour
	// it; Brtf and the baselines ignore it.
	BatteryWeight float64
	// ChunkTTL is the online system's chunk lifetime, measured in
	// subsequent publications: a chunk published at time t expires before
	// the publication at t + ChunkTTL. Used only by NewOnline.
	//
	//	ChunkTTL = 0   default: one capacity-worth of publications
	//	               (a chunk lives for Capacity arrivals)
	//	ChunkTTL > 0   exactly that many publications; ChunkTTL = 1 means
	//	               a chunk is evicted at the very next publication
	//	ChunkTTL < 0   chunks never expire
	ChunkTTL int
	// GreedyConFL switches the centralized algorithm's per-chunk solver
	// to the guarantee-free greedy heuristic (related work [23]) — an
	// ablation against the default primal-dual algorithm.
	GreedyConFL bool
	// ImproveSteiner runs key-path local search on a partitioned solve's
	// regional dissemination trees after the MST 2-approximation. Those
	// trees price the stitch's per-copy charge (the regions' average
	// decision-time fairness plus tree cost per copy), so the search can
	// change which boundary copies the stitch keeps. Nothing else reads a
	// tree it could improve: holders come from the dual growth and
	// Result.ContentionCost replays MST trees, so a global solve or an
	// online publication does not run the search and places and reports
	// exactly as without the option.
	ImproveSteiner bool
	// ChunkStarted, when non-nil, is invoked with the chunk id at the
	// start of each per-chunk iteration of the centralized algorithm —
	// an observability hook for progress reporting and cancellation
	// tests. It runs on the solving goroutine; keep it fast. Partitioned
	// solves run regions concurrently and do not invoke the hook.
	ChunkStarted func(chunk int)
	// Partition, when non-nil, routes the solve through the geographic
	// sharding path (AlgorithmApprox only): the topology is cut into
	// connected regions, each region is solved in parallel by its own
	// engine over region-local cost matrices, and the placements are
	// stitched with a boundary-reconciliation pass. See PartitionOptions.
	Partition *PartitionOptions
	// Explain asks the solve to record its phase spans and return a
	// per-phase summary in Result.Trace (durations plus counters:
	// dual-growth ticks, admitted facilities, cost-matrix sweeps, stitch
	// re-bids). The spans go into the trace the solve's context carries;
	// without one they are kept for the report only. Placements are
	// byte-identical with and without Explain.
	Explain bool
}

// Algorithm identifies a placement algorithm in results and reports.
// The canonical names are the paper's figure labels ("Appx", "Dist",
// "Hopc", "Cont", "Brtf"); ParseAlgorithm accepts those plus the legacy
// long-form aliases.
type Algorithm string

// The five algorithms of the paper's evaluation.
const (
	AlgorithmApprox      Algorithm = "Appx"
	AlgorithmDistributed Algorithm = "Dist"
	AlgorithmHopCount    Algorithm = "Hopc"
	AlgorithmContention  Algorithm = "Cont"
	AlgorithmOptimal     Algorithm = "Brtf"
)

// String returns the canonical name, e.g. "Appx".
func (a Algorithm) String() string { return string(a) }

// ParseAlgorithm resolves a case-insensitive algorithm name onto its
// canonical Algorithm. Besides the canonical names it accepts the legacy
// aliases that predate the enum — "approximate", "distribute[d]",
// "hopcount", "contention", "optimal"/"exact" — and the empty string,
// which selects the paper's primary algorithm (Appx). Unknown names
// return an error wrapping ErrBadArgument.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "appx", "approximate", "":
		return AlgorithmApprox, nil
	case "dist", "distribute", "distributed":
		return AlgorithmDistributed, nil
	case "hopc", "hopcount":
		return AlgorithmHopCount, nil
	case "cont", "contention":
		return AlgorithmContention, nil
	case "brtf", "optimal", "exact":
		return AlgorithmOptimal, nil
	default:
		return "", fmt.Errorf("%w: unknown algorithm %q (want Appx, Dist, Hopc, Cont or Brtf)", ErrBadArgument, s)
	}
}

// Result is the outcome of a placement run.
type Result struct {
	// Algorithm that produced the placement.
	Algorithm Algorithm
	// Producer is the data producer node (never caches).
	Producer int
	// Chunks is the number of distinct data chunks placed.
	Chunks int
	// Capacity is the per-node cache capacity used.
	Capacity int
	// Holders[n] lists the nodes caching chunk n.
	Holders [][]int
	// Counts[i] is the number of chunks cached on node i.
	Counts []int
	// Messages counts distributed protocol messages by type (Distribute
	// only; nil otherwise).
	Messages map[string]int
	// ProvenOptimal reports whether an Optimal run completed its search
	// exhaustively (always false for other algorithms).
	ProvenOptimal bool
	// Partition describes the decomposition of a sharded solve (nil for
	// global solves).
	Partition *PartitionReport
	// Trace is the per-phase explain summary, present only when the
	// request set Options.Explain.
	Trace *ExplainReport

	solver   *Solver
	strategy metrics.AccessStrategy
	base     *cache.State // pre-placement state (capacities, batteries)
	// trees holds the solve's own per-chunk dissemination trees, the ones
	// the evaluation replay would build (global Appx; nil otherwise).
	trees []solvedTree
}

// solvedTree is one chunk's dissemination tree as the solve built it: the
// holders it connects to the producer, and its cost.
type solvedTree struct {
	holders []int
	cost    float64
}

// withDefaults copies o and defaults the fields it adjusts: Capacity and
// HopLimit fall back to the paper's 5 and 2, FairnessWeight 0 selects 1
// and a negative one the contention-only 0, and a negative BatteryWeight
// is 0.
func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Capacity <= 0 {
		out.Capacity = 5
	}
	if out.FairnessWeight == 0 {
		out.FairnessWeight = 1
	} else if out.FairnessWeight < 0 {
		out.FairnessWeight = 0
	}
	if out.HopLimit <= 0 {
		out.HopLimit = 2
	}
	if out.BatteryWeight < 0 {
		out.BatteryWeight = 0
	}
	return out
}

// newState builds a run's initial cache state over nodes, nil meaning
// every node of t (a partitioned solve passes a region's members): local
// node i stands for nodes[i] and takes its capacity from Capacities, or
// Capacity where that list does not reach, and its battery level from
// BatteryLevels where that list reaches.
func newState(t *Topology, nodes []int, o Options) *cache.State {
	n := len(nodes)
	if nodes == nil {
		n = t.NumNodes()
	}
	id := func(i int) int {
		if nodes == nil {
			return i
		}
		return nodes[i]
	}
	caps := make([]int, n)
	for i := range caps {
		caps[i] = o.Capacity
		if v := id(i); v < len(o.Capacities) {
			caps[i] = o.Capacities[v]
		}
	}
	st := cache.NewStateWithCapacities(caps)
	for i := range caps {
		if v := id(i); v < len(o.BatteryLevels) {
			st.SetBattery(i, o.BatteryLevels[v])
		}
	}
	return st
}

func newResult(s *Solver, alg Algorithm, producer, chunks, capacity int, holders [][]int, st, base *cache.State, strategy metrics.AccessStrategy) *Result {
	return &Result{
		Algorithm: alg,
		Producer:  producer,
		Chunks:    chunks,
		Capacity:  capacity,
		Holders:   holders,
		Counts:    st.Counts(),
		solver:    s,
		strategy:  strategy,
		base:      base,
	}
}

// CostReport is the contention-cost evaluation of a placement, split by
// phase as in the paper's Fig. 2.
type CostReport struct {
	// Access is the accessing-phase contention cost (every node fetches
	// every chunk).
	Access float64
	// Dissemination is the dissemination-phase cost (per-chunk Steiner
	// trees, replayed incrementally).
	Dissemination float64
	// PerChunk holds each chunk's access + dissemination cost (Fig. 9).
	PerChunk []float64
	// AccessDelay estimates the accessing-phase latency under the
	// linearised 802.11 DCF model of Sec. III-C.
	AccessDelay time.Duration
}

// Total returns Access + Dissemination.
func (c *CostReport) Total() float64 { return c.Access + c.Dissemination }

// ContentionCost evaluates the placement under the paper's uniform replay
// metric, using the algorithm's own accessing strategy. The replay runs on
// a fork of the solver's warm cost model (DESIGN.md §5) and matches
// metrics.Evaluate bit for bit.
func (r *Result) ContentionCost() (*CostReport, error) {
	ev, err := r.evaluate(context.Background())
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	report := &CostReport{
		Access:        ev.Access,
		Dissemination: ev.Dissemination,
		PerChunk:      make([]float64, len(ev.PerChunk)),
		AccessDelay:   time.Duration(ev.AccessDelay * float64(time.Microsecond)),
	}
	for i, pc := range ev.PerChunk {
		report.PerChunk[i] = pc.Total()
	}
	return report, nil
}

// evaluate replays the placement on the solver's warm cost model,
// charging the solve's own dissemination trees when it kept them and
// Holders still names the placement they were built for (a caller may
// have edited it; any edit changes the replay's states, so no tree is
// reused then).
func (r *Result) evaluate(ctx context.Context) (*metrics.Eval, error) {
	bm, err := r.solver.evalBase(ctx)
	if err != nil {
		return nil, err
	}
	var trees []float64
	if len(r.trees) == len(r.Holders) {
		trees = make([]float64, len(r.trees))
		for n, t := range r.trees {
			if !slices.Equal(t.holders, r.Holders[n]) {
				trees = nil
				break
			}
			trees[n] = t.cost
		}
	}
	return metrics.EvaluateModel(ctx, bm, r.base, r.Producer, r.Holders, r.strategy, trees)
}

// Gini returns the Gini coefficient of the per-node caching load
// (Sec. V): 0 is perfectly fair, values toward 1 are concentrated.
func (r *Result) Gini() float64 { return metrics.Gini(r.Counts) }

// PercentileFairness returns the fraction of nodes needed to hold p
// percent of all cached copies (the paper's p-percentile fairness;
// ideally p%).
func (r *Result) PercentileFairness(p float64) (float64, error) {
	v, err := metrics.PercentileFairness(r.Counts, p)
	if err != nil {
		return 0, fmt.Errorf("faircache: %w", err)
	}
	return v, nil
}

// StorageCurve returns, for k = 1..N, the fraction of all cached copies
// held by the k most-loaded nodes (Fig. 6).
func (r *Result) StorageCurve() []float64 { return metrics.StorageCurve(r.Counts) }

// DistinctCacheNodes returns how many nodes cache at least one chunk.
func (r *Result) DistinctCacheNodes() int {
	n := 0
	for _, c := range r.Counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// TotalCopies returns the total number of cached chunk copies.
func (r *Result) TotalCopies() int {
	total := 0
	for _, c := range r.Counts {
		total += c
	}
	return total
}
