package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	faircache "repro"
	"repro/internal/cache"
	"repro/internal/confl"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/steiner"
)

// tracePlacement re-runs the solve list against a daemon wrapped by the
// span recorder, then replays every solve's layers through the modules'
// exported calls and requires the replay's holders to match the daemon's
// response byte for byte.
func tracePlacement(ctx context.Context, cfg config, rep *report, in *placementInputs, untraced []*server.SolveResponse, untracedLat summary) error {
	tr := newTracer()
	pd, err := setupPlacement(ctx, in, tr.rec)
	if err != nil {
		return err
	}
	before, err := pd.scrape(ctx)
	if err != nil {
		pd.close()
		return err
	}
	tr.startGC()
	pass, err := pd.closedLoop(ctx, in)
	tr.stopGC()
	if err != nil {
		pd.close()
		return err
	}
	after, err := pd.scrape(ctx)
	pd.close()
	if err != nil {
		return err
	}
	resps, lat := pass.resps, pass.lat
	checkPlacements(rep, in, resps)
	for i := range resps {
		if resps[i] != nil && untraced[i] != nil {
			a, _ := json.Marshal(resps[i].Holders)
			b, _ := json.Marshal(untraced[i].Holders)
			if string(a) != string(b) {
				rep.fail("solve", "entry %d: traced and untraced runs placed differently", i)
			}
		}
	}
	hits := after[`faircached_coalesced_requests_total{endpoint="solve"}`] - before[`faircached_coalesced_requests_total{endpoint="solve"}`]
	flights := after[`faircached_coalesce_flights_total{endpoint="solve"}`] - before[`faircached_coalesce_flights_total{endpoint="solve"}`]
	if hits+flights > 0 {
		tr.derived["coalesce.hit_ratio"] = hits / (hits + flights)
	}
	warm, cold := after["faircached_costmodel_warm_solves"], after["faircached_costmodel_cold_builds"]
	if warm+cold > 0 {
		tr.derived["costmodel.warm_ratio"] = warm / (warm + cold)
	}
	rep.logf("coalesce: %g hits, %g flights; cost models: %g warm solves, %g cold builds", hits, flights, warm, cold)

	rp, err := newPlacementReplay(ctx, in)
	if err != nil {
		return err
	}
	defer rp.pl.Close()
	for i := range in.list {
		if resps[i] == nil {
			continue
		}
		holders, err := rp.replay(ctx, tr, i, &in.list[i], resps[i])
		if err != nil {
			return fmt.Errorf("replaying solve %d: %w", i, err)
		}
		a, _ := json.Marshal(holders)
		b, _ := json.Marshal(resps[i].Holders)
		if string(a) != string(b) {
			rep.fail("solve", "entry %d (%s on %s): replayed holders differ from the daemon's", i, in.list[i].t.class, placementTopos[in.list[i].t.topo].name)
		}
	}
	rep.logf("replay: %d solves replayed, holders compared byte for byte", len(in.list))
	rep.logf("untraced solve latency: %s", untracedLat)
	rep.logf("traced solve latency:   %s", lat.summarize())
	return tr.finish(rep, map[string]summary{"solve": untracedLat}, map[string]summary{"solve": lat.summarize()},
		filepath.Join(cfg.spansDir, fmt.Sprintf("placement-seed%d.jsonl", cfg.seed)))
}

// replayTopo is the benchmark's own copy of one topology's solve state:
// the graph, its path cache and empty-state base cost model (as the
// daemon's solver builds them), and a root-package Solver for the
// algorithms replayed as one call.
type replayTopo struct {
	g        *graph.Graph
	pc       *graph.PathCache
	bm       *costmodel.Model
	solver   *faircache.Solver
	producer int
}

type placementReplay struct {
	topos []*replayTopo
	pl    *pool.Pool
	cscr  confl.Scratch
	sscr  steiner.Scratch
	fc    []float64
	terms []int
}

func newPlacementReplay(ctx context.Context, in *placementInputs) (*placementReplay, error) {
	rp := &placementReplay{pl: pool.New(pool.Normalize(0))}
	for i, pt := range placementTopos {
		g := in.graphs[i]
		rt := &replayTopo{g: g, pc: graph.NewPathCache(g), producer: in.producers[i]}
		bm, err := costmodel.New(g, rt.pc, cache.NewState(g.NumNodes(), 1), costmodel.Options{FairnessWeight: 1})
		if err == nil {
			err = bm.RefreshCtx(ctx, rp.pl)
		}
		if err != nil {
			rp.pl.Close()
			return nil, fmt.Errorf("%s base model: %w", pt.name, err)
		}
		rt.bm = bm
		topo, err := buildTopology(pt.req)
		if err == nil {
			rt.solver, err = faircache.NewSolver(topo)
		}
		if err == nil {
			// Warm the solver's own base model, as the daemon's first solve did.
			_, err = rt.solver.Solve(ctx, faircache.Request{Producer: rt.producer, Chunks: 1})
		}
		if err != nil {
			rp.pl.Close()
			return nil, fmt.Errorf("%s solver: %w", pt.name, err)
		}
		rp.topos = append(rp.topos, rt)
	}
	return rp, nil
}

// oneCallSpan names the span of the algorithms replayed as one
// Solver.Solve call.
var oneCallSpan = map[string]string{
	"appx-partitioned": "partition.solve",
	"hopc":             "baseline.solve",
	"cont":             "baseline.solve",
	"dist":             "dist.solve",
	"brtf":             "exact.solve",
}

// replay re-executes solve i's layers and returns the holders it placed.
func (rp *placementReplay) replay(ctx context.Context, tr *tracer, i int, e *solveEntry, resp *server.SolveResponse) ([][]int, error) {
	req := fmt.Sprintf("solve-%d", i)
	rec := tr.rec
	root := rec.start("replay", req, -1)
	defer rec.end(root)
	body, err := json.Marshal(&e.req)
	if err != nil {
		return nil, err
	}
	sp := rec.start("server.decode", req, root)
	var dec server.SolveRequest
	err = json.Unmarshal(body, &dec)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	rt := rp.topos[e.t.topo]
	var holders [][]int
	if name, ok := oneCallSpan[e.t.class]; ok {
		holders, err = rp.oneCall(ctx, tr, req, root, name, rt, e)
	} else {
		holders, err = rp.appx(ctx, tr, req, root, rt, e)
	}
	if err != nil {
		return nil, err
	}
	sp = rec.start("server.encode", req, root)
	_, err = json.Marshal(resp)
	rec.end(sp)
	return holders, err
}

// appx replays Algorithm 1 as the daemon's solver runs it: fork the warm
// base model, then per chunk refresh costs, run ConFL, connect the
// Steiner tree (and improve it when asked), commit; then evaluate.
func (rp *placementReplay) appx(ctx context.Context, tr *tracer, req string, root int, rt *replayTopo, e *solveEntry) ([][]int, error) {
	rec := tr.rec
	n, p := rt.g.NumNodes(), rt.producer
	st := capState(n, placementCapacity, e.caps)
	base := st.Clone()
	sp := rec.start("costmodel.fork", req, root)
	m, err := rt.bm.ForkCtx(ctx, rp.pl, st, costmodel.Options{FairnessWeight: 1})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	holders := make([][]int, 0, e.t.chunks)
	for c := 0; c < e.t.chunks; c++ {
		cs := rec.start("chunk", req, root)
		sp = rec.start("costmodel.refresh", req, cs)
		s0 := m.Stats()
		rp.fc = m.FacilityCostsInto(p, rp.fc)
		costs, err := m.CostsCtx(ctx, rp.pl)
		s1 := m.Stats()
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		tr.count("costmodel.cells_repaired", float64(s1.CellsRecomputed-s0.CellsRecomputed))

		copts := confl.DefaultOptions()
		copts.Pool = rp.pl
		sp = rec.start("confl", req, cs)
		sol, err := confl.SolveScratchCtx(ctx, confl.Instance{N: n, Producer: p, FacilityCost: rp.fc, ConnCost: costs.C}, copts, &rp.cscr)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		tr.count("confl.ticks", float64(sol.Iterations))
		tr.count("confl.admitted", float64(len(sol.Facilities)))
		facilities := append([]int(nil), sol.Facilities...)

		if len(facilities) > 0 {
			rp.terms = append(append(rp.terms[:0], facilities...), p)
			ew := m.EdgeCostFunc()
			sp = rec.start("steiner.connect", req, cs)
			tree, err := steiner.MSTApproxScratchCtx(ctx, rt.g, ew, rp.terms, rp.pl, &rp.sscr)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			tr.count("steiner.terminals", float64(len(rp.terms)))
			if e.t.improve {
				sp = rec.start("steiner.improve", req, cs)
				steiner.ImproveScratch(rt.g, ew, tree, rp.terms, &rp.sscr)
				rec.end(sp)
			}
		}
		sp = rec.start("costmodel.commit", req, cs)
		for _, f := range facilities {
			if err := m.Commit(f, c); err != nil {
				rec.end(sp)
				return nil, err
			}
		}
		rec.end(sp)
		rec.end(cs)
		holders = append(holders, facilities)
	}
	// Result.ContentionCost is this evaluation for the approximation.
	sp = rec.start("metrics.evaluate", req, root)
	_, err = metrics.Evaluate(rt.g, base, p, holders, metrics.AccessCostNearest)
	rec.end(sp)
	return holders, err
}

// oneCall replays a solve the benchmark cannot split further as one
// Solver.Solve call, then Result.ContentionCost.
func (rp *placementReplay) oneCall(ctx context.Context, tr *tracer, req string, root int, name string, rt *replayTopo, e *solveEntry) ([][]int, error) {
	rec := tr.rec
	o := &faircache.Options{Capacity: placementCapacity, Capacities: e.caps}
	if e.t.regions > 0 {
		o.Partition = &faircache.PartitionOptions{Regions: e.t.regions}
	}
	sp := rec.start(name, req, root)
	res, err := rt.solver.Solve(ctx, faircache.Request{Producer: rt.producer, Chunks: e.t.chunks, Algorithm: faircache.Algorithm(e.t.alg), Options: o})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	switch e.t.class {
	case "dist":
		total := 0
		for _, v := range res.Messages {
			total += v
		}
		tr.count("dist.messages", float64(total))
	case "brtf":
		proven := 0.0
		if res.ProvenOptimal {
			proven = 1
		}
		tr.count("exact.proven_ratio", proven)
	}
	sp = rec.start("metrics.evaluate", req, root)
	_, err = res.ContentionCost()
	rec.end(sp)
	return res.Holders, err
}
