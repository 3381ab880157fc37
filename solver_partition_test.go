package faircache_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	faircache "repro"
)

func partitionedRequest(regions int) faircache.Request {
	return faircache.Request{
		Producer: 0,
		Chunks:   8,
		Options: &faircache.Options{
			Capacity:  3,
			Partition: &faircache.PartitionOptions{Regions: regions},
		},
	}
}

// TestSolvePartitionedDeterministicAcrossWorkers pins the sharded path to
// the repository's determinism contract: the stitched placement is
// byte-identical at GOMAXPROCS 1, 2, 4 and the process's own, the widths
// of the worker pool that fans out over the regions.
// The ImproveSteiner input covers the one solve path that runs the
// key-path search (its trees price the stitch's per-copy charge), so
// its explain report must hold steiner.improve phases and the plain
// one's none.
func TestSolvePartitionedDeterministicAcrossWorkers(t *testing.T) {
	widths := []int{2, 4, runtime.GOMAXPROCS(0)}
	for name, topo := range testTopologies(t) {
		solver, err := faircache.NewSolver(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, improve := range []bool{false, true} {
			label := fmt.Sprintf("%s improve=%v", name, improve)
			req := partitionedRequest(4)
			req.Options.ImproveSteiner = improve
			req.Options.Explain = true
			setWidth(t, 1)
			want, err := solver.Solve(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: sequential partitioned solve: %v", label, err)
			}
			improves := 0
			for _, ph := range want.Trace.Phases {
				if ph.Phase == "steiner.improve" {
					improves = ph.Count
				}
			}
			if (improves > 0) != improve {
				t.Fatalf("%s: %d steiner.improve spans in the explain report", label, improves)
			}
			for _, width := range widths {
				setWidth(t, width)
				got, err := solver.Solve(context.Background(), req)
				if err != nil {
					t.Fatalf("%s width=%d: %v", label, width, err)
				}
				sameResult(t, label, want, got)
				if *got.Partition != *want.Partition {
					t.Fatalf("%s width=%d: partition report %+v != %+v", label, width, *got.Partition, *want.Partition)
				}
			}
		}
	}
}

// TestSolvePartitionedWarmPlanIsIdentical checks that a repeated sharded
// solve — now running against the memoised plan and warm per-region
// models — reproduces the cold solve exactly.
func TestSolvePartitionedWarmPlanIsIdentical(t *testing.T) {
	for name, topo := range testTopologies(t) {
		solver, err := faircache.NewSolver(topo)
		if err != nil {
			t.Fatal(err)
		}
		req := partitionedRequest(4)
		cold, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		warm, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		sameResult(t, name, cold, warm)
		stats := solver.Stats()
		if stats.PartitionedSolves != 2 {
			t.Fatalf("%s: PartitionedSolves = %d, want 2", name, stats.PartitionedSolves)
		}
		if stats.PartitionPlans != 1 {
			t.Fatalf("%s: PartitionPlans = %d, want 1 (plan must be memoised)", name, stats.PartitionPlans)
		}
		if stats.WarmSolves == 0 {
			t.Fatalf("%s: second partitioned solve did not take the warm path", name)
		}
	}
}

// TestSolvePartitionedCostWithinBound measures the stitched placement
// against the unsharded solve on the mid-size topologies of the eval
// comparison (cmd/experiments -fig part) and asserts the cost-error
// factor stays within the documented bound. Region counts scale with
// topology size: over-sharding (regions too small to hold the chunk set
// without heavy replication) is documented to inflate the factor and is
// not what the bound claims.
func TestSolvePartitionedCostWithinBound(t *testing.T) {
	const bound = 1.15
	grid, err := faircache.Grid(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	random, err := faircache.Random(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := faircache.Clustered(6, 12, 11)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		topo    *faircache.Topology
		regions int
	}{
		{"grid 12x12", grid, 4},
		{"random 120", random, 4},
		{"clustered 6x12", clustered, 3},
	}
	for _, tc := range cases {
		name := tc.name
		solver, err := faircache.NewSolver(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		req := faircache.Request{Producer: 9, Chunks: 5, Options: &faircache.Options{Capacity: 5}}
		global, err := solver.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		shardedReq := req
		shardedReq.Options = &faircache.Options{
			Capacity:  5,
			Partition: &faircache.PartitionOptions{Regions: tc.regions},
		}
		sharded, err := solver.Solve(context.Background(), shardedReq)
		if err != nil {
			t.Fatal(err)
		}
		globalCost, err := global.ContentionCost()
		if err != nil {
			t.Fatal(err)
		}
		shardedCost, err := sharded.ContentionCost()
		if err != nil {
			t.Fatal(err)
		}
		ratio := shardedCost.Total() / globalCost.Total()
		if ratio > bound {
			t.Fatalf("%s: sharded/global cost ratio %.3f exceeds %.2f", name, ratio, bound)
		}
		t.Logf("%s: cost ratio %.3f (bound %.2f)", name, ratio, bound)
	}
}

// TestSolvePartitionedReport sanity-checks the decomposition report: the
// region sizes must cover the topology, the per-region matrices must be
// strictly smaller than the global N², and the halo bookkeeping must be
// internally consistent.
func TestSolvePartitionedReport(t *testing.T) {
	topo, err := faircache.Grid(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), partitionedRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Partition
	if rep == nil {
		t.Fatal("partitioned solve returned no Partition report")
	}
	if rep.Regions < 2 || rep.Regions > 4 {
		t.Fatalf("Regions = %d, want in [2, 4]", rep.Regions)
	}
	if rep.MinRegionNodes < 2 || rep.MaxRegionNodes < rep.MinRegionNodes {
		t.Fatalf("region size bounds [%d, %d] are inconsistent", rep.MinRegionNodes, rep.MaxRegionNodes)
	}
	if rep.MaxRegionNodes*rep.Regions < topo.NumNodes() {
		t.Fatalf("regions cannot cover the topology: %d regions of <= %d nodes vs %d nodes",
			rep.Regions, rep.MaxRegionNodes, topo.NumNodes())
	}
	if rep.CutEdges == 0 || rep.BoundaryNodes == 0 {
		t.Fatalf("a 10x10 grid cut must expose a boundary, got %d cut edges / %d boundary nodes", rep.CutEdges, rep.BoundaryNodes)
	}
	if rep.Halo != faircache.DefaultPartitionHalo {
		t.Fatalf("Halo = %d, want default %d", rep.Halo, faircache.DefaultPartitionHalo)
	}
	if rep.HaloNodes < rep.BoundaryNodes {
		t.Fatalf("HaloNodes %d < BoundaryNodes %d", rep.HaloNodes, rep.BoundaryNodes)
	}
	if rep.DroppedCopies > rep.RebidCandidates {
		t.Fatalf("DroppedCopies %d > RebidCandidates %d", rep.DroppedCopies, rep.RebidCandidates)
	}
	if rep.FullMatrixCells != topo.NumNodes()*topo.NumNodes() {
		t.Fatalf("FullMatrixCells = %d, want %d", rep.FullMatrixCells, topo.NumNodes()*topo.NumNodes())
	}
	if rep.MatrixCells <= 0 || rep.MatrixCells >= rep.FullMatrixCells {
		t.Fatalf("MatrixCells = %d, want in (0, %d): sharding must shrink the matrix footprint",
			rep.MatrixCells, rep.FullMatrixCells)
	}
	// Every stitched chunk must keep at least one reachable copy.
	for n, holders := range res.Holders {
		if len(holders) == 0 {
			t.Fatalf("chunk %d lost all copies in the stitch", n)
		}
	}
}

// TestSolvePartitionedRejectsBadRequests covers the sharded path's typed
// argument errors: unsupported algorithms and impossible region counts.
func TestSolvePartitionedRejectsBadRequests(t *testing.T) {
	topo, err := faircache.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []faircache.Algorithm{faircache.AlgorithmDistributed, faircache.AlgorithmHopCount, faircache.AlgorithmContention, faircache.AlgorithmOptimal} {
		req := partitionedRequest(4)
		req.Algorithm = alg
		if _, err := solver.Solve(context.Background(), req); !errors.Is(err, faircache.ErrBadArgument) {
			t.Fatalf("algorithm %q with Partition: err = %v, want ErrBadArgument", alg, err)
		}
	}
	for _, regions := range []int{-3, 0, 1, 13, 1000} {
		req := partitionedRequest(regions)
		if _, err := solver.Solve(context.Background(), req); !errors.Is(err, faircache.ErrBadArgument) {
			t.Fatalf("regions=%d: err = %v, want ErrBadArgument", regions, err)
		}
	}
}

// TestSolvePartitionedHaloDisabled checks that a negative halo keeps every
// region's copies: reconciliation is off, so nothing may be dropped.
func TestSolvePartitionedHaloDisabled(t *testing.T) {
	topo, err := faircache.Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	req := partitionedRequest(4)
	req.Options.Partition.Halo = -1
	res, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.Halo != 0 {
		t.Fatalf("effective halo = %d, want 0", res.Partition.Halo)
	}
	if res.Partition.RebidCandidates != 0 || res.Partition.DroppedCopies != 0 {
		t.Fatalf("halo disabled but stitch re-bid %d / dropped %d copies",
			res.Partition.RebidCandidates, res.Partition.DroppedCopies)
	}
}

// TestSolvePartitionedLargeTopology is the scale proof: a 2,500-node grid
// — far beyond what the global O(N²) path is run on in tests — solves
// through the sharded path. Placement quality is covered by the bounded
// mid-size tests; here only completion, coverage and the matrix saving
// are asserted (a global evaluation at this size would itself be O(N²)).
func TestSolvePartitionedLargeTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("large-topology solve skipped in -short mode")
	}
	topo, err := faircache.Grid(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	req := faircache.Request{
		Producer: 0,
		Chunks:   4,
		Options: &faircache.Options{
			Capacity:  2,
			Partition: &faircache.PartitionOptions{Regions: 25},
		},
	}
	res, err := solver.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.Regions != 25 {
		t.Fatalf("Regions = %d, want 25", res.Partition.Regions)
	}
	for n, holders := range res.Holders {
		if len(holders) == 0 {
			t.Fatalf("chunk %d has no holders", n)
		}
	}
	full := topo.NumNodes() * topo.NumNodes()
	if res.Partition.MatrixCells*10 > full {
		t.Fatalf("MatrixCells = %d, want < 10%% of N² = %d", res.Partition.MatrixCells, full)
	}
}

// TestPartitionedLargeGridSmoke is the CI smoke target: a partitioned
// 40x40 grid must solve under -race within a strict wall-clock budget.
func TestPartitionedLargeGridSmoke(t *testing.T) {
	topo, err := faircache.Grid(40, 40)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	req := faircache.Request{
		Producer: 0,
		Chunks:   4,
		Options: &faircache.Options{
			Capacity:  2,
			Partition: &faircache.PartitionOptions{Regions: 16},
		},
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := solver.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.Regions != 16 {
		t.Fatalf("Regions = %d, want 16", res.Partition.Regions)
	}
	t.Logf("partitioned 40x40 solve in %v", time.Since(start))
}
