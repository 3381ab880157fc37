package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
)

// The serve workload's topology, history and traffic. The lookup rate is
// about a third of what two closed-loop clients sustain on a 2-core
// machine: busy enough that idle-core spinning does not dominate the CPU
// time per request, idle enough that the two senders catch up after a
// host stall (see README.md).
var serveTopo = server.RegisterRequest{Kind: "grid", Rows: 12, Cols: 12, Capacity: 5, ChunkTTL: 32}

const (
	// serveHistory is how many publications the data dir holds before the
	// restart whose recovery set-up pays for.
	serveHistory = 128
	// Per-second rates of the open loop's three Poisson streams.
	serveLookupRate  = 6000
	servePublishRate = 10
	serveReportRate  = 1
	// serveWindows splits the schedule into equal windows with fixed
	// per-window counts. Lookup and publish medians, and the lookup tail,
	// are medians over the windows of each window's figure, so a few slow
	// bursts do not set a whole run's latencies.
	serveWindows = 12
	// A lookup asks for one of the chunks published within the last
	// ChunkTTL publications scheduled before it, but not the latest one:
	// with two senders, one publish scheduled earlier may still be in
	// flight when the lookup runs, and a chunk not yet published is
	// unknown to the daemon.
	lookupMargin = 2
)

// serveOp is one scheduled request.
type serveOp struct {
	kind        string // lookup, publish or report
	chunk, node int
}

type serveInputs struct {
	g        *graph.Graph
	producer int
	dist     [][]int
	due      []time.Duration
	ops      []serveOp
	// window is the schedule window each request falls in.
	window []int
}

// makeServeInputs draws each stream's arrivals in each window as a
// Poisson process with a fixed count: that many uniform times over the
// window, sorted.
func makeServeInputs(seed int64, seconds int) (*serveInputs, error) {
	g, err := buildGraph(serveTopo)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{g: g, producer: graph.CentralNode(g), dist: g.AllPairsHops()}
	rng := rand.New(rand.NewSource(seed))
	type arrival struct {
		at time.Duration
		op serveOp
		w  int
	}
	var all []arrival
	width := float64(seconds) * float64(time.Second) / serveWindows
	// Reports are too rare to spread evenly over windows; they draw from
	// the whole run.
	add := func(kind string, n, windows int) {
		for w := 0; w < windows; w++ {
			for i := 0; i < n/windows; i++ {
				op := serveOp{kind: kind}
				if kind == "lookup" {
					// For now the chunk's age in publications; made an id
					// below, once the schedule is in order.
					op.chunk = rng.Intn(serveTopo.ChunkTTL - lookupMargin)
					op.node = rng.Intn(g.NumNodes())
				}
				at := (float64(w) + rng.Float64()) * width * serveWindows / float64(windows)
				all = append(all, arrival{time.Duration(at), op, int(at / width)})
			}
		}
	}
	add("lookup", serveLookupRate*seconds, serveWindows)
	add("publish", servePublishRate*seconds, serveWindows)
	add("report", serveReportRate*seconds, 1)
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	published := serveHistory
	for _, a := range all {
		switch a.op.kind {
		case "publish":
			published++
		case "lookup":
			a.op.chunk = published - lookupMargin - a.op.chunk
		}
		in.due = append(in.due, a.at)
		in.ops = append(in.ops, a.op)
		in.window = append(in.window, a.w)
	}
	return in, nil
}

func (in *serveInputs) describe(rep *report, seconds int) {
	rep.logf("topology grid%dx%d nodes %d links %d producer %d capacity %d chunkTTL %d",
		serveTopo.Rows, serveTopo.Cols, in.g.NumNodes(), in.g.NumEdges(), in.producer, serveTopo.Capacity, serveTopo.ChunkTTL)
	rep.logf("history %d publications, recovered at set-up (durable, fsync=always)", serveHistory)
	rep.logf("lookups ask for chunks %d to %d publications old at their due time, from random nodes", lookupMargin, serveTopo.ChunkTTL-1)
	counts := make(map[string]int)
	for _, op := range in.ops {
		counts[op.kind]++
	}
	for _, k := range []string{"lookup", "publish", "report"} {
		rep.logf("stream %-8s %6d requests, scheduled rate %.1f/s (open loop, Poisson, %d connections, %d windows)",
			k, counts[k], float64(counts[k])/float64(seconds), maxConns, serveWindows)
	}
}

// prepareHistory builds the data dir the serve daemon restarts on. It is
// preparation, not timed.
func prepareHistory(ctx context.Context, dir string) (string, error) {
	d, err := startDaemon(server.Options{DataDir: dir, Fsync: "always"}, nil)
	if err != nil {
		return "", err
	}
	defer d.close()
	req := serveTopo
	resp, err := d.cl.Register(ctx, &req)
	if err != nil {
		return "", fmt.Errorf("register: %w", err)
	}
	for left := serveHistory; left > 0; left -= 16 {
		if _, err := d.cl.Publish(ctx, resp.ID, min(left, 16)); err != nil {
			return "", fmt.Errorf("history publish: %w", err)
		}
	}
	return resp.ID, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// serveDaemon is a durable daemon restarted on a copy of the history.
type serveDaemon struct {
	*daemon
	id      string
	dir     string
	recover time.Duration
	// initial is the recovered committed snapshot.
	initial *server.Snapshot
}

func setupServe(ctx context.Context, history, dir, id string, rec *recorder) (*serveDaemon, error) {
	if err := copyDir(history, dir); err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := startDaemon(server.Options{DataDir: dir, Fsync: "always"}, rec)
	if err != nil {
		return nil, err
	}
	sd := &serveDaemon{daemon: d, id: id, dir: dir, recover: time.Since(start)}
	rep, err := d.cl.Report(ctx, id)
	if err != nil {
		d.close()
		return nil, fmt.Errorf("first report: %w", err)
	}
	if rep.Snapshot.Clock != serveHistory {
		d.close()
		return nil, fmt.Errorf("recovered clock %d, history has %d publications", rep.Snapshot.Clock, serveHistory)
	}
	sd.initial = rep.Snapshot
	return sd, nil
}

// servePass is one open-loop run's outcome.
type servePass struct {
	results []openLoopResult
	lookups map[int]*server.LookupResponse
	publish map[int]*server.PublishResponse
	reports map[int]*server.ReportResponse
	lat     map[string]*latencySet
	// windows holds each schedule window's latencies per request kind.
	windows map[string][]*latencySet
	wall    time.Duration
	// cpu is the process's CPU time over the pass (daemon and load
	// generator): unlike latency, host CPU steal does not inflate it.
	cpu time.Duration
}

func (sd *serveDaemon) openLoop(ctx context.Context, in *serveInputs) (*servePass, error) {
	p := &servePass{
		lookups: make(map[int]*server.LookupResponse),
		publish: make(map[int]*server.PublishResponse),
		reports: make(map[int]*server.ReportResponse),
		lat:     map[string]*latencySet{"lookup": {}, "publish": {}, "report": {}},
		windows: make(map[string][]*latencySet),
	}
	for _, k := range []string{"lookup", "publish", "report"} {
		for w := 0; w < serveWindows; w++ {
			p.windows[k] = append(p.windows[k], &latencySet{})
		}
	}
	resps := make([]any, len(in.ops))
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	p.results = runOpenLoop(ctx, in.due, maxConns, func(ctx context.Context, i int, waited time.Duration) error {
		op := in.ops[i]
		req := fmt.Sprintf("%s-%d", op.kind, i)
		if sd.rec != nil && waited > 0 {
			// The wait for a busy sender, which the open loop's latency
			// includes.
			now := sd.rec.now()
			sd.rec.add("client.wait", req, -1, now-int64(waited), now)
		}
		_, err := sd.call(ctx, op.kind, req, func(ctx context.Context) error {
			var err error
			switch op.kind {
			case "lookup":
				resps[i], err = sd.cl.Lookup(ctx, sd.id, op.chunk, op.node)
			case "publish":
				resps[i], err = sd.cl.Publish(ctx, sd.id, 1)
			case "report":
				resps[i], err = sd.cl.Report(ctx, sd.id)
			}
			return err
		})
		return err
	})
	p.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	for i, r := range p.results {
		kind := in.ops[i].kind
		win := p.windows[kind][in.window[i]]
		if r.Err != nil {
			p.lat[kind].fail()
			win.fail()
			continue
		}
		p.lat[kind].add(r.Latency())
		win.add(r.Latency())
		switch v := resps[i].(type) {
		case *server.LookupResponse:
			p.lookups[i] = v
		case *server.PublishResponse:
			p.publish[i] = v
		case *server.ReportResponse:
			p.reports[i] = v
		}
	}
	return p, nil
}

// check verifies every response of the pass against the committed
// snapshots the benchmark saw and its own BFS distances.
func (p *servePass) check(rep *report, in *serveInputs, initial *server.Snapshot) {
	capacity := serveTopo.Capacity
	n := in.g.NumNodes()
	versions := map[int]map[int][]int{initial.Version: initial.Holders}
	for i := range in.ops {
		c := rep.op(in.ops[i].kind)
		c.attempted++
		if p.results[i].Err != nil {
			c.failed++
		}
	}
	for i, r := range p.publish {
		if msg := checkCounts(r.Holders, r.Counts, n, capacity); msg != "" {
			rep.fail("publish", "request %d: %s", i, msg)
			continue
		}
		if r.Published != r.Clock || len(r.Publications) != 1 {
			rep.fail("publish", "request %d: clock %d published %d with %d publications", i, r.Clock, r.Published, len(r.Publications))
			continue
		}
		versions[r.Version] = r.Holders
	}
	for i, r := range p.reports {
		s := r.Snapshot
		if msg := checkCounts(s.Holders, s.Counts, n, capacity); msg != "" {
			rep.fail("report", "request %d: %s", i, msg)
			continue
		}
		if hs, ok := versions[s.Version]; ok && !equalHolders(hs, s.Holders) {
			rep.fail("report", "request %d: v%d holders differ from the publish response's", i, s.Version)
		}
	}
	for i, r := range p.lookups {
		hs, ok := versions[r.Version]
		if !ok {
			rep.fail("lookup", "request %d: snapshot v%d was never committed by a publish the benchmark saw", i, r.Version)
			continue
		}
		if msg := checkLookup(r, hs[r.Chunk], in.dist[r.Node], in.producer); msg != "" {
			rep.fail("lookup", "request %d: %s", i, msg)
		}
	}
}

// meanHops is the mean hop count of the lookups' answers.
func (p *servePass) meanHops() float64 {
	hops := 0
	for _, r := range p.lookups {
		hops += r.Hops
	}
	return float64(hops) / float64(max(len(p.lookups), 1))
}

func equalHolders(a, b map[int][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !equalInts(v, b[k]) {
			return false
		}
	}
	return true
}

// lateness summarizes how far behind its schedule the generator sent,
// from all causes.
func lateness(results []openLoopResult) (p50, p99, maxMs float64) {
	late := make([]float64, len(results))
	for i, r := range results {
		late[i] = float64(r.Late().Nanoseconds()) / 1e6
	}
	sort.Float64s(late)
	return percentile(late, 50), percentile(late, 99), late[len(late)-1]
}

func runServe(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	in, err := makeServeInputs(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	in.describe(rep, cfg.seconds)
	if cfg.dry {
		return rep, nil
	}
	history, err := cfg.subdir("history")
	if err != nil {
		return nil, err
	}
	id, err := prepareHistory(ctx, history)
	if err != nil {
		return nil, fmt.Errorf("preparing history: %w", err)
	}
	k := 0
	setup := func() (*serveDaemon, error) {
		k++
		return setupServe(ctx, history, filepath.Join(cfg.dir, fmt.Sprintf("data%d", k)), id, nil)
	}
	setupStart := time.Now()
	sd, before, err := timedSetups(cfg.trace, setup)
	if err != nil {
		return nil, err
	}
	setupWall := time.Since(setupStart)
	pass, err := sd.openLoop(ctx, in)
	sd.close()
	if err != nil {
		return nil, err
	}
	pass.check(rep, in, sd.initial)
	p50, p99, mx := lateness(pass.results)
	rep.logf("generator lateness behind schedule: p50 %.3f ms, p99 %.3f ms, max %.3f ms; schedule %ds, pass took %.2f s",
		p50, p99, mx, cfg.seconds, pass.wall.Seconds())
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
		// Host CPU steal on a shared 2-vCPU VM moves serve's sub-millisecond
		// latencies by more than any bound a gate may use, so they are
		// printed, and the result line carries the process CPU time per
		// request.
		rep.setCPU(pass.cpu, len(in.ops))
		rep.set("access_hops", pass.meanHops(), "hops")
		lookups := windowed(pass.windows["lookup"])
		publishes := windowed(pass.windows["publish"])
		// A window holds ten publishes, too few for a tail; the tail
		// uses windows four times as long.
		coarse := windowed(merged(pass.windows["publish"], 4))
		rep.set("lookup_ms_p50", lookups.P50, "ms")
		rep.set("lookup_ms_tail", lookups.Tail, "ms")
		rep.set("publish_ms_p50", publishes.P50, "ms")
		rep.set("publish_ms_tail", coarse.Tail, "ms")
		rep.logf("lookup_ms: %s", lookups.windows(serveWindows))
		rep.logf("publish_ms_p50: %s", publishes.windows(serveWindows))
		rep.logf("publish_ms_tail: %s", coarse.windows(serveWindows/4))
		rep.logf("report latency: %s", pass.lat["report"].summarize())
		return rep, nil
	}
	return rep, traceServe(ctx, cfg, rep, in, history, id, pass)
}
