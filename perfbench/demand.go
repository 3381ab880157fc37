package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	faircache "repro"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/wal"
)

// The demand workload is the adaptive-caching scenario: a 15×15 grid, 64
// chunks, capacity 3, Zipf(0.9) demand whose popularity ranking drifts
// four times over the stream.
var demandTopo = server.RegisterRequest{Kind: "grid", Rows: 15, Cols: 15, Capacity: 3}

var demandInit = server.DemandInit{Chunks: 64, Capacity: 3, HitRadius: 2, TopDelta: 24, CopyBudget: 150}

const (
	// demandEventsPerSecond sizes the fixed stream at seconds × this many
	// events, so a run lasts about --seconds on a 2-core machine.
	demandEventsPerSecond = 300000
	// demandBatch is the events per POST /requests; demandAdaptEvery the
	// events between POST /adapt calls.
	demandBatch      = 2000
	demandAdaptEvery = 10000
	demandZipf       = 0.9
	// demandWarmup is how many adaptation periods set-up streams after
	// the seeding batch. The first passes after seeding move most of the
	// static placement and run several times longer than later ones;
	// timing them would make the tail depend on how many fall in it.
	demandWarmup = 16
	// demandWindows splits the timed passes for the adapt latencies,
	// which are medians over the windows of each window's figure.
	demandWindows = 3
)

type demandInputs struct {
	g        *graph.Graph
	producer int
	// batches[0] initializes the demand subsystem at set-up; set-up then
	// streams the next warmup batches, and the rest are the timed stream.
	batches [][]faircache.RequestEvent
	warmup  int
}

func makeDemandInputs(seed int64, seconds int) (*demandInputs, error) {
	g, err := buildGraph(demandTopo)
	if err != nil {
		return nil, err
	}
	in := &demandInputs{g: g, producer: graph.CentralNode(g), warmup: demandWarmup * demandAdaptEvery / demandBatch}
	total := demandEventsPerSecond*seconds + demandWarmup*demandAdaptEvery
	trace, err := sim.NewTrace(sim.TraceSpec{
		Nodes: g.NumNodes(), Chunks: demandInit.Chunks, Seed: seed,
		ZipfS: demandZipf, DriftEvery: total / 4, Exclude: in.producer,
	})
	if err != nil {
		return nil, err
	}
	for done := 0; done < total+demandBatch; done += demandBatch {
		b := make([]faircache.RequestEvent, demandBatch)
		for i := range b {
			r := trace.Next()
			b[i] = faircache.RequestEvent{Node: r.Node, Chunk: r.Chunk}
		}
		in.batches = append(in.batches, b)
	}
	return in, nil
}

func (in *demandInputs) describe(rep *report) {
	rep.logf("topology grid%dx%d nodes %d producer %d; demand chunks %d capacity %d hitRadius %d topDelta %d copyBudget %d (durable, fsync=always)",
		demandTopo.Rows, demandTopo.Cols, in.g.NumNodes(), in.producer, demandInit.Chunks, demandInit.Capacity,
		demandInit.HitRadius, demandInit.TopDelta, demandInit.CopyBudget)
	events := (len(in.batches) - 1 - in.warmup) * demandBatch
	rep.logf("stream: Zipf(%.1f) events with drift every %d; set-up sends a seeding batch of %d and %d warm-up events with %d passes; timed: %d events in %d batches of %d, adapt every %d events (%d passes); 1 uploader, closed loop",
		demandZipf, (len(in.batches)-1)*demandBatch/4, demandBatch, in.warmup*demandBatch, demandWarmup,
		events, len(in.batches)-1-in.warmup, demandBatch, demandAdaptEvery, events/demandAdaptEvery)
}

type demandDaemon struct {
	*daemon
	id string
	// warm is the placement the last warm-up pass committed, in effect
	// when the timed stream starts.
	warm map[int][]int
}

// setupDemand starts a durable daemon, registers the grid and sends the
// seeding batch, which builds and seeds the demand subsystem.
func setupDemand(ctx context.Context, in *demandInputs, dir string, rec *recorder) (*demandDaemon, error) {
	d, err := startDaemon(server.Options{DataDir: dir, Fsync: "always"}, rec)
	if err != nil {
		return nil, err
	}
	req := demandTopo
	resp, err := d.cl.Register(ctx, &req)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("register: %w", err)
	}
	init := demandInit
	if _, err := d.cl.Requests(ctx, resp.ID, &server.RequestsRequest{Events: in.batches[0], Init: &init}); err != nil {
		d.close()
		return nil, fmt.Errorf("seeding batch: %w", err)
	}
	dd := &demandDaemon{daemon: d, id: resp.ID}
	for k, b := range in.batches[1 : 1+in.warmup] {
		_, err := d.cl.Requests(ctx, resp.ID, &server.RequestsRequest{Events: b})
		if err == nil && (k+1)*demandBatch%demandAdaptEvery == 0 {
			var ar *server.AdaptResponse
			if ar, err = d.cl.Adapt(ctx, resp.ID); err == nil {
				dd.warm = ar.Holders
			}
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return dd, nil
}

// timed returns the timed stream's batches.
func (in *demandInputs) timed() [][]faircache.RequestEvent { return in.batches[1+in.warmup:] }

// demandPass is one run of the stream.
type demandPass struct {
	batches  []*server.RequestsResponse
	adapts   []*server.AdaptResponse
	ingest   time.Duration
	events   int
	lat      map[string]*latencySet
	wall     time.Duration
	attempts map[string]int
	// cpu is the process's CPU time over the pass.
	cpu time.Duration
	// warm is the placement in effect when the pass started.
	warm map[int][]int
}

func (dd *demandDaemon) stream(ctx context.Context, in *demandInputs) (*demandPass, error) {
	p := &demandPass{lat: map[string]*latencySet{"requests": {}, "adapt": {}}, attempts: make(map[string]int), warm: dd.warm}
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for k, b := range in.timed() {
		p.attempts["requests"]++
		var resp *server.RequestsResponse
		el, err := dd.call(ctx, "requests", fmt.Sprintf("requests-%d", k), func(ctx context.Context) error {
			var err error
			resp, err = dd.cl.Requests(ctx, dd.id, &server.RequestsRequest{Events: b})
			return err
		})
		p.batches = append(p.batches, resp)
		if err != nil {
			p.lat["requests"].fail()
		} else {
			p.lat["requests"].add(el)
			p.ingest += el
			p.events += len(b)
		}
		if (k+1)*demandBatch%demandAdaptEvery != 0 {
			continue
		}
		p.attempts["adapt"]++
		var ar *server.AdaptResponse
		el, err = dd.call(ctx, "adapt", fmt.Sprintf("adapt-%d", len(p.adapts)), func(ctx context.Context) error {
			var err error
			ar, err = dd.cl.Adapt(ctx, dd.id)
			return err
		})
		p.adapts = append(p.adapts, ar)
		if err != nil {
			p.lat["adapt"].fail()
		} else {
			p.lat["adapt"].add(el)
		}
	}
	p.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	return p, nil
}

// meanHops is the mean hop distance from each event's node to the
// nearest copy of its chunk under the placement in effect when the event
// was sent (the producer holds every chunk).
func (p *demandPass) meanHops(in *demandInputs) float64 {
	dist := in.g.AllPairsHops()
	holders := p.warm
	hops, events, passes := 0, 0, 0
	for k, b := range in.timed() {
		for _, e := range b {
			_, h := nearest(dist[e.Node], holders[e.Chunk], in.producer)
			hops += h
			events++
		}
		if (k+1)*demandBatch%demandAdaptEvery == 0 {
			if a := p.adapts[passes]; a != nil {
				holders = a.Holders
			}
			passes++
		}
	}
	return float64(hops) / float64(max(events, 1))
}

// adaptWindows splits the pass latencies into demandWindows consecutive
// windows.
func (p *demandPass) adaptWindows() []*latencySet {
	ms := p.lat["adapt"].ms
	per := (len(ms) + demandWindows - 1) / demandWindows
	var out []*latencySet
	for i := 0; i < len(ms); i += per {
		ls := &latencySet{ms: ms[i:min(i+per, len(ms))]}
		for _, v := range ls.ms {
			if math.IsInf(v, 1) {
				ls.failed++
			}
		}
		out = append(out, ls)
	}
	return out
}

// check verifies every batch's accounting and every adapted placement,
// and returns the local-hit rate at the end of the stream.
func (p *demandPass) check(rep *report, in *demandInputs) float64 {
	for _, op := range []string{"requests", "adapt"} {
		rep.op(op).attempted += p.attempts[op]
	}
	hitRate := 0.0
	for k, r := range p.batches {
		if r == nil {
			rep.op("requests").failed++
			continue
		}
		if msg := checkBatch(r.Batch, len(in.timed()[k])); msg != "" {
			rep.fail("requests", "batch %d: %s", k, msg)
		}
		hitRate = r.Demand.HitRate
	}
	for k, a := range p.adapts {
		if a == nil {
			rep.op("adapt").failed++
			continue
		}
		if msg := checkCounts(a.Holders, a.Counts, in.g.NumNodes(), demandInit.Capacity); msg != "" {
			rep.fail("adapt", "pass %d: %s", k, msg)
			continue
		}
		for c := range a.Holders {
			if c < 0 || c >= demandInit.Chunks {
				rep.fail("adapt", "pass %d: placement holds unknown chunk %d", k, c)
				break
			}
		}
	}
	sent := 0
	for _, b := range in.batches {
		sent += len(b)
	}
	if last := p.batches[len(p.batches)-1]; last != nil && last.Demand.Requests != int64(sent) {
		rep.fail("requests", "daemon counted %d requests, benchmark sent %d", last.Demand.Requests, sent)
	}
	return hitRate
}

func runDemand(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	in, err := makeDemandInputs(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	in.describe(rep)
	if cfg.dry {
		return rep, nil
	}
	k := 0
	setup := func() (*demandDaemon, error) {
		k++
		dir, err := cfg.subdir(fmt.Sprintf("demand%d", k))
		if err != nil {
			return nil, err
		}
		return setupDemand(ctx, in, dir, nil)
	}
	setupStart := time.Now()
	dd, before, err := timedSetups(cfg.trace, setup)
	if err != nil {
		return nil, err
	}
	setupWall := time.Since(setupStart)
	pass, err := dd.stream(ctx, in)
	dd.close()
	if err != nil {
		return nil, err
	}
	hitRate := pass.check(rep, in)
	if !cfg.trace {
		againStart := time.Now()
		after, err := setupAgain(len(before), setup)
		if err != nil {
			return nil, err
		}
		setupWall += time.Since(againStart)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.setSetup(before, after, setupWall, pass.wall)
		rep.set("peak_rss_mb", rss, "MB")
		rep.setCPU(pass.cpu, pass.attempts["requests"]+pass.attempts["adapt"])
		rep.set("access_hops", pass.meanHops(in), "hops")
		rep.set("events_per_s", float64(pass.events)/pass.ingest.Seconds(), "events/s")
		adapts := windowed(pass.adaptWindows())
		rep.set("adapt_ms_p50", adapts.P50, "ms")
		rep.set("adapt_ms_tail", adapts.Tail, "ms")
		rep.logf("adapt_ms: %s", adapts.windows(demandWindows))
		rep.set("hit_rate", hitRate, "ratio")
		rep.logf("requests batch latency: %s", pass.lat["requests"].summarize())
		return rep, nil
	}
	return rep, traceDemand(ctx, cfg, rep, in, pass)
}

// traceDemand re-streams the events against a traced daemon, then
// replays every batch through AdaptiveSystem.Report and every pass
// through AdaptiveSystem.AdaptWith plus a WAL append of its record.
// Replayed placements must match the daemon's byte for byte.
func traceDemand(ctx context.Context, cfg config, rep *report, in *demandInputs, untraced *demandPass) error {
	tr := newTracer()
	dir, err := cfg.subdir("demand-traced")
	if err != nil {
		return err
	}
	dd, err := setupDemand(ctx, in, dir, tr.rec)
	if err != nil {
		return err
	}
	before, err := dd.scrape(ctx)
	if err != nil {
		dd.close()
		return err
	}
	tr.startGC()
	pass, err := dd.stream(ctx, in)
	tr.stopGC()
	if err != nil {
		dd.close()
		return err
	}
	after, err := dd.scrape(ctx)
	dd.close()
	if err != nil {
		return err
	}
	pass.check(rep, in)
	if c := after["faircached_wal_append_duration_seconds_count"] - before["faircached_wal_append_duration_seconds_count"]; c > 0 {
		tr.derived["wal.daemon_append_ms"] = 1e3 * (after["faircached_wal_append_duration_seconds_sum"] - before["faircached_wal_append_duration_seconds_sum"]) / c
	}
	if err := replayDemand(ctx, tr, rep, cfg, in, pass); err != nil {
		return err
	}
	u, t := make(map[string]summary), make(map[string]summary)
	for k := range pass.lat {
		u[k], t[k] = untraced.lat[k].summarize(), pass.lat[k].summarize()
		rep.logf("%s latency untraced: %s", k, u[k])
		rep.logf("%s latency traced:   %s", k, t[k])
	}
	return tr.finish(rep, u, t, filepath.Join(cfg.spansDir, fmt.Sprintf("demand-seed%d.jsonl", cfg.seed)))
}

func replayDemand(ctx context.Context, tr *tracer, rep *report, cfg config, in *demandInputs, pass *demandPass) error {
	rec := tr.rec
	topo, err := buildTopology(demandTopo)
	if err != nil {
		return err
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		return err
	}
	sys, err := solver.NewAdaptive(ctx, in.producer, demandInit.Chunks, &faircache.AdaptiveOptions{
		Capacity: demandInit.Capacity, HitRadius: demandInit.HitRadius, TopDelta: demandInit.TopDelta, CopyBudget: demandInit.CopyBudget,
	})
	if err != nil {
		return err
	}
	for k, b := range in.batches[:1+in.warmup] {
		if _, err := sys.Report(b); err != nil {
			return err
		}
		if k > 0 && k*demandBatch%demandAdaptEvery == 0 {
			if _, err := sys.AdaptWith(ctx, nil); err != nil {
				return err
			}
		}
	}
	walDir, err := cfg.subdir("replay-wal")
	if err != nil {
		return err
	}
	log, _, err := wal.Open(wal.Options{Dir: walDir, Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	adapts := 0
	for k, resp := range pass.batches {
		if resp == nil {
			return fmt.Errorf("batch %d failed; nothing to replay against", k)
		}
		req := fmt.Sprintf("requests-%d", k)
		root := rec.start("replay", req, -1)
		body, err := json.Marshal(&server.RequestsRequest{Events: in.timed()[k]})
		if err != nil {
			return err
		}
		sp := rec.start("server.decode", req, root)
		var dec server.RequestsRequest
		err = json.Unmarshal(body, &dec)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("demand.observe", req, root)
		batch, err := sys.Report(dec.Events)
		rec.end(sp)
		if err != nil {
			return err
		}
		tr.count("demand.events", float64(len(dec.Events)))
		if batch != resp.Batch {
			rep.fail("requests", "batch %d: replay counted %+v, daemon %+v", k, batch, resp.Batch)
		}
		sp = rec.start("server.encode", req, root)
		_, err = json.Marshal(resp)
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return err
		}
		if (k+1)*demandBatch%demandAdaptEvery != 0 {
			continue
		}
		ar := pass.adapts[adapts]
		req = fmt.Sprintf("adapt-%d", adapts)
		adapts++
		if ar == nil {
			return fmt.Errorf("%s failed; nothing to replay against", req)
		}
		root = rec.start("replay", req, -1)
		sp = rec.start("demand.adapt", req, root)
		res, err := sys.AdaptWith(ctx, nil)
		rec.end(sp)
		if err != nil {
			return err
		}
		tr.count("demand.evicted", float64(res.Evicted))
		tr.count("demand.placed", float64(res.Placed))
		tr.count("demand.replaced", float64(len(res.Replaced)))
		holders := make(map[int][]int)
		for c, hs := range sys.Placement() {
			if len(hs) > 0 {
				holders[c] = hs
			}
		}
		a, _ := json.Marshal(holders)
		b, _ := json.Marshal(ar.Holders)
		if string(a) != string(b) {
			rep.fail("adapt", "%s: replayed placement differs from the daemon's", req)
		}
		payload, err := json.Marshal(&server.WALRecord{Type: server.WALAdapt, ID: "t1", Snap: &server.Snapshot{
			Version: ar.Version, Source: "adapt", Producer: in.producer, Chunks: demandInit.Chunks,
			Holders: holders, Counts: sys.Counts(),
		}})
		if err != nil {
			return err
		}
		tr.count("wal.record_bytes", float64(len(payload)))
		sp = rec.start("wal.append", req, root)
		err = log.Append(payload)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("server.encode", req, root)
		_, err = json.Marshal(ar)
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return err
		}
	}
	rep.logf("replay: %d batches, %d adaptation passes; placements compared byte for byte", len(pass.batches), adapts)
	return nil
}
