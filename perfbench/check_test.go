package main

import (
	"context"
	"slices"
	"strings"
	"testing"

	faircache "repro"
	"repro/internal/metrics"
	"repro/internal/server"
)

// validSolve returns a real Appx placement on the 3×3 grid as the daemon
// would report it.
func validSolve(t *testing.T, in *placementInputs, tmpl solveTemplate) *server.SolveResponse {
	t.Helper()
	topo, err := faircache.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	p := in.producers[tmpl.topo]
	res, err := s.Solve(context.Background(), faircache.Request{Producer: p, Chunks: tmpl.chunks, Options: &faircache.Options{Capacity: placementCapacity}})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := metrics.Evaluate(in.graphs[tmpl.topo], capState(9, placementCapacity, nil), p, res.Holders, metrics.AccessCostNearest)
	if err != nil {
		t.Fatal(err)
	}
	return &server.SolveResponse{
		Algorithm: "Appx", Chunks: tmpl.chunks, Holders: res.Holders, Counts: res.Counts,
		Copies: res.TotalCopies(), Gini: res.Gini(),
		AccessCost: ev.Access, DisseminationCost: ev.Dissemination, TotalCost: ev.Total(),
	}
}

func cloneSolve(r *server.SolveResponse) *server.SolveResponse {
	c := *r
	c.Holders = make([][]int, len(r.Holders))
	for i, hs := range r.Holders {
		c.Holders[i] = slices.Clone(hs)
	}
	c.Counts = slices.Clone(r.Counts)
	return &c
}

func TestPlacementChecksFlagCorruptedResponses(t *testing.T) {
	in, err := makePlacementInputs(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := solveTemplate{class: "appx", topo: 0, alg: "Appx", chunks: 4}
	valid := validSolve(t, in, tmpl)
	p := in.producers[0]
	holder := valid.Holders[0][0]

	producerHolds := cloneSolve(valid)
	producerHolds.Holders[0] = append(producerHolds.Holders[0], p)
	producerHolds.Counts[p]++
	producerHolds.Copies++

	badCounts := cloneSolve(valid)
	badCounts.Counts[holder]++

	overCapacity := cloneSolve(valid) // checked against capacity 0 on holder
	caps := make([]int, 9)
	for i := range caps {
		caps[i] = placementCapacity
	}
	caps[holder] = 0

	badCost := cloneSolve(valid)
	badCost.TotalCost++

	entries := []solveEntry{{t: tmpl}, {t: tmpl}, {t: tmpl}, {t: tmpl, caps: caps}, {t: tmpl}}
	in.list = entries
	rep := newReport()
	checkPlacements(rep, in, []*server.SolveResponse{valid, producerHolds, badCounts, overCapacity, badCost})
	op := rep.ops["solve"]
	if op.attempted != 5 || op.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4; problems: %v", op.attempted, op.failed, rep.problems)
	}
	for i, want := range []string{"held by the producer", "count", "over capacity", "costs"} {
		if !strings.Contains(rep.problems[i], want) {
			t.Errorf("problem %d = %q, want it to mention %q", i, rep.problems[i], want)
		}
	}
}

func TestServeChecksFlagCorruptedResponses(t *testing.T) {
	in, err := makeServeInputs(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := in.g.NumNodes()
	node := 0
	holders := []int{in.producer + 1, n - 1}
	initial := &server.Snapshot{Version: 1, Chunks: 1, Holders: map[int][]int{0: holders}, Counts: make([]int, n)}
	served, hops := nearest(in.dist[node], holders, in.producer)
	lookup := &server.LookupResponse{Version: 1, Chunk: 0, Node: node, ServedBy: served, Hops: hops, FromProducer: served == in.producer, Holders: holders}
	wrongServer := *lookup
	for _, h := range append([]int{in.producer}, holders...) {
		if h != served {
			wrongServer.ServedBy = h
			break
		}
	}
	wrongHops := *lookup
	wrongHops.Hops++

	counts := make([]int, n)
	pubHolders := map[int][]int{}
	for c := 0; c <= serveTopo.Capacity; c++ {
		pubHolders[c] = []int{node}
		counts[node]++
	}
	overCapacity := &server.PublishResponse{Version: 2, Clock: 6, Published: 6, Publications: []server.PublicationInfo{{Chunk: 5}}, Holders: pubHolders, Counts: counts}

	in.ops = []serveOp{{kind: "lookup"}, {kind: "lookup"}, {kind: "lookup"}, {kind: "publish"}}
	p := &servePass{
		results: make([]openLoopResult, 4),
		lookups: map[int]*server.LookupResponse{0: lookup, 1: &wrongServer, 2: &wrongHops},
		publish: map[int]*server.PublishResponse{3: overCapacity},
		reports: map[int]*server.ReportResponse{},
	}
	rep := newReport()
	p.check(rep, in, initial)
	if l := rep.ops["lookup"]; l.attempted != 3 || l.failed != 2 {
		t.Errorf("lookups attempted %d failed %d, want 3 and 2; problems %v", l.attempted, l.failed, rep.problems)
	}
	if pub := rep.ops["publish"]; pub.failed != 1 {
		t.Errorf("publish over capacity not flagged; problems %v", rep.problems)
	}
}

func TestDemandChecksFlagCorruptedResponses(t *testing.T) {
	in := &demandInputs{batches: [][]faircache.RequestEvent{make([]faircache.RequestEvent, 3), make([]faircache.RequestEvent, 3), make([]faircache.RequestEvent, 3)}}
	var err error
	if in.g, err = buildGraph(demandTopo); err != nil {
		t.Fatal(err)
	}
	n := in.g.NumNodes()
	stats := func(requests int64) *server.DemandInfo {
		return &server.DemandInfo{AdaptiveStats: faircache.AdaptiveStats{Requests: requests}}
	}
	good := &server.RequestsResponse{Batch: faircache.BatchResult{Requests: 3, CacheHits: 2, LocalHits: 1}, Demand: stats(6)}
	bad := &server.RequestsResponse{Batch: faircache.BatchResult{Requests: 3, CacheHits: 2, LocalHits: 3}, Demand: stats(9)}
	okCounts := make([]int, n)
	okCounts[1], okCounts[2] = 1, 1
	okAdapt := &server.AdaptResponse{Holders: map[int][]int{0: {1, 2}}, Counts: okCounts}
	overCounts := make([]int, n)
	overHolders := map[int][]int{}
	for c := 0; c <= demandInit.Capacity; c++ {
		overHolders[c] = []int{5}
		overCounts[5]++
	}
	overAdapt := &server.AdaptResponse{Holders: overHolders, Counts: overCounts}
	p := &demandPass{
		batches:  []*server.RequestsResponse{good, bad},
		adapts:   []*server.AdaptResponse{okAdapt, overAdapt},
		attempts: map[string]int{"requests": 2, "adapt": 2},
	}
	rep := newReport()
	p.check(rep, in)
	if r := rep.ops["requests"]; r.attempted != 2 || r.failed != 1 {
		t.Errorf("requests attempted %d failed %d, want 2 and 1; problems %v", r.attempted, r.failed, rep.problems)
	}
	if a := rep.ops["adapt"]; a.attempted != 2 || a.failed != 1 {
		t.Errorf("adapt attempted %d failed %d, want 2 and 1; problems %v", a.attempted, a.failed, rep.problems)
	}
}
