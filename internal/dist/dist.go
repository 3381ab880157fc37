// Package dist implements the paper's distributed fair-caching algorithm
// (Algorithm 2). Nodes have no global topology knowledge: they learn the
// producer's reachability from the flooded NPI announcement, collect
// contention information from their k-hop neighborhood (CC), raise
// connection and relay bids (TIGHT / SPAN), and candidates that gather a
// SPAN quorum — and whose fairness cost is paid by the supporters' surplus
// bids — volunteer as ADMIN caching nodes (NADMIN / BADMIN). The protocol
// runs on the deterministic round simulator of package sim, which also
// counts messages per type (TABLE II, Sec. IV-D).
package dist

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/confl"
	"repro/internal/contention"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Options tunes the distributed protocol.
type Options struct {
	// K limits control messages to k-hop neighborhoods; the paper uses 2
	// (Fig. 3 sweeps this).
	K int
	// AlphaStep and GammaStep are the per-round bid increments.
	AlphaStep float64
	GammaStep float64
	// SpanQuorum is M, the SPAN support needed to volunteer as ADMIN.
	SpanQuorum int
	// FairnessWeight scales the Fairness Degree Cost each candidate must
	// see paid before volunteering; 0 disables the fairness gate.
	FairnessWeight float64
	// BatteryWeight scales the battery Fairness Degree Cost (footnote 1
	// extension); 0 ignores battery levels.
	BatteryWeight float64
	// MaxRounds caps one chunk's protocol run; 0 derives a bound from
	// the producer's worst-case contention cost.
	MaxRounds int
	// Drop, when non-nil, injects message loss (failure testing).
	Drop sim.DropFunc
	// Trace, when non-nil, observes every delivered protocol message.
	Trace sim.TraceFunc
}

// DefaultOptions returns the evaluation defaults: 2-hop message scope (the
// paper's choice, justified by the Fig. 3 sweep) and the same calibrated
// dual-growth parameters as the centralized solver — the relay bid grows
// faster than the connection bid so SPAN quorums form before the
// producer's service ball absorbs the supporters.
func DefaultOptions() Options {
	return Options{
		K:              2,
		AlphaStep:      1,
		GammaStep:      2,
		SpanQuorum:     2,
		FairnessWeight: 1,
	}
}

// ChunkRun records one chunk's protocol execution.
type ChunkRun struct {
	// Chunk is the chunk id.
	Chunk int
	// CacheNodes lists the ADMIN nodes that volunteered, sorted.
	CacheNodes []int
	// Assign maps each node to where it will obtain the chunk.
	Assign []int
	// Rounds is the number of simulation rounds the protocol took.
	Rounds int
	// Messages counts protocol messages by kind for this chunk.
	Messages map[string]int
}

// Placement is the outcome of running the protocol for every chunk.
type Placement struct {
	Producer int
	Chunks   []ChunkRun
	State    *cache.State
}

// CacheNodes returns per-chunk holder sets for the metrics evaluation.
func (p *Placement) CacheNodes() [][]int {
	out := make([][]int, len(p.Chunks))
	for i, c := range p.Chunks {
		out[i] = append([]int(nil), c.CacheNodes...)
	}
	return out
}

// TotalMessages sums message counts over all chunks and kinds.
func (p *Placement) TotalMessages() int {
	total := 0
	for _, c := range p.Chunks {
		for _, v := range c.Messages {
			total += v
		}
	}
	return total
}

// MessagesByKind aggregates per-kind counts over all chunks.
func (p *Placement) MessagesByKind() map[string]int {
	out := make(map[string]int)
	for _, c := range p.Chunks {
		for k, v := range c.Messages {
			out[k] += v
		}
	}
	return out
}

// Protocol runs the distributed algorithm over one topology.
type Protocol struct {
	g    *graph.Graph
	opts Options
}

// Errors returned by the protocol.
var (
	ErrBadTopology = errors.New("dist: topology must be connected with at least 2 nodes")
	ErrBadProducer = errors.New("dist: producer out of range")
	ErrBadChunks   = errors.New("dist: chunk count must be positive")
	ErrBadState    = errors.New("dist: cache state size mismatch")
)

// New returns a Protocol for the given connected topology.
func New(g *graph.Graph, opts Options) (*Protocol, error) {
	if g == nil || g.NumNodes() < 2 || !g.Connected() {
		return nil, ErrBadTopology
	}
	if opts.K <= 0 {
		opts.K = 2
	}
	if opts.AlphaStep <= 0 {
		opts.AlphaStep = 1
	}
	if opts.GammaStep <= 0 {
		opts.GammaStep = opts.AlphaStep
	}
	if opts.SpanQuorum <= 0 {
		opts.SpanQuorum = 1
	}
	if opts.FairnessWeight < 0 {
		return nil, fmt.Errorf("dist: fairness weight %g must be >= 0", opts.FairnessWeight)
	}
	return &Protocol{g: g, opts: opts}, nil
}

// PlaceChunksCtx runs the protocol once per chunk (0..chunks-1),
// committing each chunk's ADMIN set into st before the next chunk starts,
// so the fairness and contention feedback matches the centralized
// algorithm. The chunks share one simulated network and one set of
// per-node tables, reset between chunks. ctx is checked before every
// simulated round: a chunk's run is bounded by its round limit, but a
// tiny AlphaStep makes that limit astronomically large, so only the
// deadline keeps such a solve from running on.
func (pr *Protocol) PlaceChunksCtx(ctx context.Context, producer, chunks int, st *cache.State) (*Placement, error) {
	if producer < 0 || producer >= pr.g.NumNodes() {
		return nil, fmt.Errorf("%w: %d", ErrBadProducer, producer)
	}
	if chunks <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadChunks, chunks)
	}
	if st == nil || st.NumNodes() != pr.g.NumNodes() {
		return nil, ErrBadState
	}
	numNodes := pr.g.NumNodes()
	scr := newPathScratch(numNodes)
	nodes := make([]node, numNodes)
	simNodes := make([]sim.Node, numNodes)
	for i := range nodes {
		nodes[i] = node{id: i, producer: producer, opts: &pr.opts, scr: scr}
		simNodes[i] = &nodes[i]
	}
	network, err := sim.NewNetwork(pr.g, simNodes)
	if err != nil {
		return nil, err
	}
	network.Drop = pr.opts.Drop
	network.Trace = pr.opts.Trace

	placement := &Placement{Producer: producer, State: st}
	for n := 0; n < chunks; n++ {
		run, err := pr.runChunk(ctx, network, nodes, producer, n, st)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", n, err)
		}
		for _, v := range run.CacheNodes {
			if err := st.Store(v, n); err != nil {
				return nil, fmt.Errorf("chunk %d store on %d: %w", n, v, err)
			}
		}
		placement.Chunks = append(placement.Chunks, run)
	}
	return placement, nil
}

// runChunk executes one chunk's protocol round-trip on the call's network.
func (pr *Protocol) runChunk(ctx context.Context, network *sim.Network, nodes []node, producer, chunkID int, st *cache.State) (ChunkRun, error) {
	weights := contention.Weights(pr.g, st)
	for i := range nodes {
		fairness := st.CombinedFairnessCost(i, pr.opts.FairnessWeight, pr.opts.BatteryWeight)
		nodes[i].reset(weights[i], fairness, st.Free(i) > 0 && !math.IsInf(fairness, 1))
	}
	maxRounds := pr.opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = pr.roundBound(producer, weights)
	}
	rounds, err := network.Run(ctx, maxRounds)
	if err != nil {
		return ChunkRun{}, err
	}

	run := ChunkRun{
		Chunk:    chunkID,
		Assign:   make([]int, len(nodes)),
		Rounds:   rounds,
		Messages: network.Counts(),
	}
	for i := range nodes {
		run.Assign[i] = nodes[i].assigned
		if nodes[i].state == stateAdmin {
			run.CacheNodes = append(run.CacheNodes, i)
		}
	}
	return run, nil
}

// roundBound derives a safe termination bound: every node freezes onto the
// producer once its bid covers the producer path cost, so the protocol
// needs at most max c(producer, ·)/U_α rounds plus flood propagation slack
// (saturating, as the centralized dual growth's bound does). Only the
// producer's row of the contention matrix is needed, swept over the
// chunk's node weights.
func (pr *Protocol) roundBound(producer int, weights []float64) int {
	row, _ := pr.g.NodeCostPaths(producer, weights)
	maxC := 0.0
	for j, c := range row {
		if j != producer && c > maxC {
			maxC = c
		}
	}
	return confl.TickBound(maxC, pr.opts.AlphaStep, 4*pr.g.NumNodes()+32)
}
