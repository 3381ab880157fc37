package faircache

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/trace"
)

// partitionPlan is one memoised decomposition of the solver's topology:
// the cut itself plus, per region, a lazily built empty-state base cost
// model that owns the region's path cache. Plans live for the solver's
// lifetime, so repeated sharded solves at the same region count skip both
// the cut and the per-region matrix builds.
type partitionPlan struct {
	part *partition.Partition

	// mu guards bases' one-time construction; after that the models are
	// read-only (solves fork them) and may be read without the lock.
	mu    sync.Mutex
	bases []*costmodel.Model
}

// partitionPlan returns the solver's cached plan for a region count,
// cutting the topology on first use.
func (s *Solver) partitionPlan(regions int) (*partitionPlan, error) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if plan, ok := s.plans[regions]; ok {
		return plan, nil
	}
	part, err := partition.New(s.topo.g, partition.Options{
		Regions:  regions,
		GridRows: s.topo.gridRows,
		GridCols: s.topo.gridCols,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArgument, err)
	}
	plan := &partitionPlan{part: part}
	if s.plans == nil {
		s.plans = make(map[int]*partitionPlan)
	}
	s.plans[regions] = plan
	s.mu.Lock()
	s.stats.PartitionPlans++
	s.mu.Unlock()
	return plan, nil
}

// ensureBases builds every region's empty-state base model once, fanned
// out over the pool. As with Solver.baseModel, empty-state weights depend
// only on node degrees, so one base per region serves every capacity,
// battery and weight configuration through warm forks. Reports whether
// this call did the build (the cold path).
func (p *partitionPlan) ensureBases(ctx context.Context, pl *pool.Pool) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.bases != nil {
		return false, nil
	}
	bases := make([]*costmodel.Model, len(p.part.Regions))
	err := pl.ForEachErr(ctx, len(bases), func(r int) error {
		reg := p.part.Regions[r]
		st := cache.NewState(reg.Sub.NumNodes(), 1)
		m, err := costmodel.New(reg.Sub, nil, st, costmodel.Options{FairnessWeight: 1})
		if err != nil {
			return err
		}
		if err := m.RefreshCtx(ctx, nil); err != nil {
			return err
		}
		bases[r] = m
		return nil
	})
	if err != nil {
		return false, err
	}
	p.bases = bases
	return true, nil
}

// regionProducers picks every region's local producer id: the region
// holding the global producer uses it, every other region uses its
// gateway — the member nearest the producer on the full topology (lowest
// id on ties), where producer traffic enters the region. A gateway acts
// as the region's data source and, like any producer, never caches.
func regionProducers(g *graph.Graph, part *partition.Partition, producer int) []int {
	hops := g.HopDistances(producer)
	out := make([]int, len(part.Regions))
	for r, reg := range part.Regions {
		best := 0
		for li, v := range reg.Nodes {
			if hops[v] < hops[reg.Nodes[best]] {
				best = li
			}
		}
		out[r] = best
	}
	return out
}

// solvePartitioned runs the sharded variant of the centralized
// approximation: cut (memoised) → per-region Algorithm 1 in parallel →
// boundary stitch. Regions solve against their own warm-forked cost
// models, so no O(N²) structure over the full topology is ever built on
// this path.
func (s *Solver) solvePartitioned(ctx context.Context, req Request, o Options, sp *trace.Span) (*Result, error) {
	halo := o.Partition.Halo
	switch {
	case halo == 0:
		halo = DefaultPartitionHalo
	case halo < 0:
		halo = 0
	}
	plan, err := s.partitionPlan(o.Partition.Regions)
	if err != nil {
		return nil, err
	}
	part := plan.part

	pl := pool.New(0)
	defer pl.Close()
	bsp := sp.Child("partition.bases")
	built, err := plan.ensureBases(ctx, pl)
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}
	if built {
		bsp.SetInt("cold", 1)
		bsp.SetInt("regions", int64(len(part.Regions)))
	}
	bsp.End()

	// The fan-out is across regions; inside each region the engine runs
	// its sequential reference path on a nil pool (nesting a ForEach on
	// the same pool would deadlock, and the region fan-out is where the
	// parallelism is). Slot writes keep the outcome byte-identical at any
	// width.
	coreOpts := coreOptions(o)
	coreOpts.ChunkStarted = nil // regions run concurrently; see Options
	// The per-copy charge below sums the regions' decision-time tree
	// costs, so this is the one solve path that reads an improved tree.
	coreOpts.ImproveSteiner = o.ImproveSteiner
	producers := regionProducers(s.topo.g, part, req.Producer)
	placements := make([]*core.Placement, len(part.Regions))
	err = pl.ForEachErr(ctx, len(part.Regions), func(r int) error {
		rsp := sp.Child("partition.region")
		rsp.SetInt("region", int64(r))
		rsp.SetInt("nodes", int64(len(part.Regions[r].Nodes)))
		defer rsp.End()
		ropts := coreOpts
		ropts.Parent = rsp
		m, err := plan.bases[r].ForkCtx(ctx, nil, newState(s.topo, part.Regions[r].Nodes, o), modelOptions(o))
		if err != nil {
			return err
		}
		p, err := core.PlaceCtx(ctx, m, producers[r], req.Chunks, ropts, nil)
		if err != nil {
			return fmt.Errorf("region %d: %w", r, err)
		}
		placements[r] = p
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("faircache: %w", err)
	}

	// Union the per-region holder sets in original ids and calibrate the
	// per-copy charge from the regions' own decision-time costs: the
	// average fairness + dissemination price one committed copy paid.
	merged := make([][]int, req.Chunks)
	var chargeSum float64
	copies := 0
	for r, p := range placements {
		nodes := part.Regions[r].Nodes
		for _, cres := range p.Chunks {
			chargeSum += cres.Fairness + cres.Dissemination
			for _, li := range cres.CacheNodes {
				merged[cres.Chunk] = append(merged[cres.Chunk], nodes[li])
			}
		}
	}
	for n := range merged {
		slices.Sort(merged[n])
		copies += len(merged[n])
	}
	copyCharge := 0.0
	if copies > 0 {
		copyCharge = chargeSum / float64(copies)
	}
	weights := make([]float64, s.topo.g.NumNodes())
	for v := range weights {
		weights[v] = float64(s.topo.g.Degree(v))
	}
	ssp := sp.Child("partition.stitch")
	stitched, stitchStats := part.Stitch(merged, partition.StitchOptions{
		Producer:   req.Producer,
		Halo:       halo,
		CopyCharge: copyCharge,
		Weights:    weights,
	})
	ssp.SetInt("haloNodes", int64(stitchStats.HaloNodes))
	ssp.SetInt("rebids", int64(stitchStats.Candidates))
	ssp.SetInt("dropped", int64(stitchStats.Dropped))
	ssp.End()

	st := newState(s.topo, nil, o)
	base := st.Clone()
	for n, holders := range stitched {
		for _, v := range holders {
			if err := st.Store(v, n); err != nil {
				return nil, fmt.Errorf("faircache: stitched placement: %w", err)
			}
		}
	}

	minNodes, maxNodes, matrixCells := len(part.Regions[0].Nodes), 0, 0
	for r, reg := range part.Regions {
		if len(reg.Nodes) < minNodes {
			minNodes = len(reg.Nodes)
		}
		if len(reg.Nodes) > maxNodes {
			maxNodes = len(reg.Nodes)
		}
		matrixCells += plan.bases[r].MatrixCells()
	}
	res := newResult(s, AlgorithmApprox, req.Producer, req.Chunks, o.Capacity, stitched, st, base, metrics.AccessCostNearest)
	res.Partition = &PartitionReport{
		Regions:         len(part.Regions),
		MinRegionNodes:  minNodes,
		MaxRegionNodes:  maxNodes,
		CutEdges:        len(part.CutEdges),
		BoundaryNodes:   len(part.Boundary),
		Halo:            halo,
		HaloNodes:       stitchStats.HaloNodes,
		RebidCandidates: stitchStats.Candidates,
		DroppedCopies:   stitchStats.Dropped,
		MatrixCells:     matrixCells,
		FullMatrixCells: s.topo.g.NumNodes() * s.topo.g.NumNodes(),
	}
	s.mu.Lock()
	s.stats.PartitionedSolves++
	if built {
		s.stats.ColdBuilds++
	} else {
		s.stats.WarmSolves++
	}
	s.mu.Unlock()
	return res, nil
}
