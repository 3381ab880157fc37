package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/server"
)

// placementTopo is one topology the placement workload registers at
// set-up: the paper's grid shapes from 3×3 up to the 15×15 bench grid,
// plus a random-geometric and a clustered (crowd) network.
type placementTopo struct {
	name string
	req  server.RegisterRequest
}

var placementTopos = []placementTopo{
	{"grid3x3", server.RegisterRequest{Kind: "grid", Rows: 3, Cols: 3}},
	{"grid6x6", server.RegisterRequest{Kind: "grid", Rows: 6, Cols: 6}},
	{"grid10x10", server.RegisterRequest{Kind: "grid", Rows: 10, Cols: 10}},
	{"grid15x15", server.RegisterRequest{Kind: "grid", Rows: 15, Cols: 15}},
	{"random100", server.RegisterRequest{Kind: "random", Nodes: 100, Seed: 11}},
	{"clustered5x16", server.RegisterRequest{Kind: "clustered", Clusters: 5, Size: 16, Seed: 11}},
}

// placementCapacity is the registered per-node capacity (the paper's 5).
const placementCapacity = 5

// solveTemplate is one kind of solve in the request mix.
type solveTemplate struct {
	class   string
	topo    int
	alg     string
	chunks  int
	improve bool
	regions int
	// weight is how many of each deck of templates are this one.
	weight int
}

// placementDeck fixes the request mix: every deck of 22 base solves
// holds exactly these, in a seeded order. Appx dominates (17 of 22). The
// 15×15 solves are the slowest class and 3 of 22, so the tail percentile
// falls inside one class instead of between two.
var placementDeck = []solveTemplate{
	{class: "appx", topo: 3, alg: "Appx", chunks: 16, weight: 3},
	{class: "appx", topo: 2, alg: "Appx", chunks: 16, weight: 3},
	{class: "appx", topo: 4, alg: "Appx", chunks: 16, weight: 2},
	{class: "appx", topo: 5, alg: "Appx", chunks: 16, weight: 2},
	{class: "appx", topo: 1, alg: "Appx", chunks: 16, weight: 2},
	{class: "appx", topo: 1, alg: "Appx", chunks: 64, weight: 1},
	{class: "appx-improve", topo: 2, alg: "Appx", chunks: 16, improve: true, weight: 1},
	{class: "appx-improve", topo: 5, alg: "Appx", chunks: 16, improve: true, weight: 1},
	{class: "appx-partitioned", topo: 3, alg: "Appx", chunks: 16, regions: 4, weight: 1},
	{class: "appx-partitioned", topo: 2, alg: "Appx", chunks: 16, regions: 4, weight: 1},
	{class: "hopc", topo: 3, alg: "Hopc", chunks: 16, weight: 1},
	{class: "cont", topo: 4, alg: "Cont", chunks: 16, weight: 1},
	{class: "dist", topo: 1, alg: "Dist", chunks: 16, weight: 1},
	{class: "dist", topo: 5, alg: "Dist", chunks: 5, weight: 1},
	{class: "brtf", topo: 0, alg: "Brtf", chunks: 4, weight: 1},
}

// Every block of the solve list holds one deck of base solves plus
// blockRepeats exact repeats of earlier entries and blockVariants
// ε-variants (the same solve with capacities changed on one or two
// nodes), at seeded positions: 4 of 30 each, a 13.3% share.
const (
	blockRepeats  = 4
	blockVariants = 4
)

// placementSolvesPerSecond sizes the fixed solve list at about seconds ×
// this many solves (whole blocks), roughly what two clients complete per
// second on a 2-core machine, so a run lasts about --seconds.
const placementSolvesPerSecond = 19

type solveEntry struct {
	t    solveTemplate
	kind string // base, repeat or variant
	of   int    // the entry a repeat or variant copies
	caps []int
	req  server.SolveRequest
}

// placementInputs is the workload's generated input: the topologies'
// own graphs, their hop distances and the seeded solve list.
type placementInputs struct {
	graphs    []*graph.Graph
	dists     [][][]int
	producers []int
	list      []solveEntry
}

// shuffledDeck returns the deck's templates, each repeated by its weight,
// in a seeded order.
func shuffledDeck(rng *rand.Rand) []int {
	var deck []int
	for t, st := range placementDeck {
		for w := 0; w < st.weight; w++ {
			deck = append(deck, t)
		}
	}
	rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
	return deck
}

// makePlacementInputs builds the solve list block by block. Which
// templates the copies duplicate is drawn from a second shuffled deck,
// so every seed gives the same class mix and only order, copy targets
// and variant capacities change.
func makePlacementInputs(seed int64, seconds int) (*placementInputs, error) {
	in := &placementInputs{}
	for _, pt := range placementTopos {
		g, err := buildGraph(pt.req)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.name, err)
		}
		in.graphs = append(in.graphs, g)
		in.dists = append(in.dists, g.AllPairsHops())
		in.producers = append(in.producers, graph.CentralNode(g))
	}
	rng := rand.New(rand.NewSource(seed))
	deckSize := len(shuffledDeck(rand.New(rand.NewSource(0))))
	blockSize := deckSize + blockRepeats + blockVariants
	blocks := max(1, (placementSolvesPerSecond*seconds+blockSize/2)/blockSize)
	latest := make(map[int]int) // template -> index of its latest base entry
	var copyDeck []int
	for b := 0; b < blocks; b++ {
		kinds := make([]string, blockSize)
		for i := range kinds {
			switch {
			case i < blockRepeats:
				kinds[i] = "repeat"
			case i < blockRepeats+blockVariants:
				kinds[i] = "variant"
			default:
				kinds[i] = "base"
			}
		}
		rng.Shuffle(blockSize, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		deck := shuffledDeck(rng)
		// A copy drawn before its template's first solve becomes a base
		// solve; the block's last base slot then sends the copy instead,
		// so every block keeps its exact mix.
		var owed []string
		for _, k := range kinds {
			if k == "base" && len(deck) == 0 {
				k, owed = owed[0], owed[1:]
			}
			i := len(in.list)
			var e solveEntry
			if k != "base" {
				if len(copyDeck) == 0 {
					copyDeck = shuffledDeck(rng)
				}
				if j, ok := latest[copyDeck[0]]; ok {
					copyDeck = copyDeck[1:]
					e = solveEntry{t: in.list[j].t, kind: k, of: j}
				} else {
					owed = append(owed, k)
					k = "base"
				}
			}
			switch k {
			case "base":
				e = solveEntry{t: placementDeck[deck[0]], kind: "base", of: i}
				latest[deck[0]] = i
				deck = deck[1:]
			case "repeat":
				e.caps = in.list[e.of].caps
			case "variant":
				g, p := in.graphs[e.t.topo], in.producers[e.t.topo]
				e.caps = make([]int, g.NumNodes())
				for v := range e.caps {
					e.caps[v] = placementCapacity
				}
				for changed := 1 + rng.Intn(2); changed > 0; {
					v := rng.Intn(g.NumNodes())
					if v == p || e.caps[v] != placementCapacity {
						continue
					}
					e.caps[v] = []int{1, 2, 3, 4, 6, 7, 8, 9}[rng.Intn(8)]
					changed--
				}
			}
			e.req = solveRequest(e.t, e.caps)
			in.list = append(in.list, e)
		}
	}
	return in, nil
}

func solveRequest(t solveTemplate, caps []int) server.SolveRequest {
	o := &server.SolveOptions{Algorithm: t.alg, ImproveSteiner: t.improve, Capacities: caps}
	if t.regions > 0 {
		o.Partition = &server.PartitionSpec{Regions: t.regions}
	}
	return server.SolveRequest{Chunks: t.chunks, Options: o}
}

// describe prints the generated mix: class shares, topology sizes, repeat
// and variant shares.
func (in *placementInputs) describe(rep *report) {
	for i, pt := range placementTopos {
		g := in.graphs[i]
		rep.logf("topology %-14s nodes %3d links %4d producer %d", pt.name, g.NumNodes(), g.NumEdges(), in.producers[i])
	}
	classes := make(map[string]int)
	kinds := make(map[string]int)
	for _, e := range in.list {
		classes[e.t.class]++
		kinds[e.kind]++
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	n := float64(len(in.list))
	rep.logf("solves %d (closed loop, %d clients)", len(in.list), maxConns)
	for _, c := range names {
		rep.logf("class %-17s share %.3f", c, float64(classes[c])/n)
	}
	rep.logf("exact repeats share %.3f, epsilon-variants share %.3f", float64(kinds["repeat"])/n, float64(kinds["variant"])/n)
}

// placementDaemon is a daemon with the placement topologies registered
// and warmed by one solve each.
type placementDaemon struct {
	*daemon
	ids []string
}

func setupPlacement(ctx context.Context, in *placementInputs, rec *recorder) (*placementDaemon, error) {
	d, err := startDaemon(server.Options{}, rec)
	if err != nil {
		return nil, err
	}
	pd := &placementDaemon{daemon: d}
	for i, pt := range placementTopos {
		req := pt.req
		req.Capacity = placementCapacity
		resp, err := d.cl.Register(ctx, &req)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("register %s: %w", pt.name, err)
		}
		g := in.graphs[i]
		if resp.Nodes != g.NumNodes() || resp.Links != g.NumEdges() || resp.Producer != in.producers[i] {
			d.close()
			return nil, fmt.Errorf("register %s: daemon built %d nodes %d links producer %d, benchmark %d %d %d",
				pt.name, resp.Nodes, resp.Links, resp.Producer, g.NumNodes(), g.NumEdges(), in.producers[i])
		}
		pd.ids = append(pd.ids, resp.ID)
	}
	// The first solve per topology pays its cold cost-model build.
	for i, id := range pd.ids {
		if _, err := d.cl.Solve(ctx, id, &server.SolveRequest{Chunks: 1}); err != nil {
			d.close()
			return nil, fmt.Errorf("first solve on %s: %w", placementTopos[i].name, err)
		}
	}
	return pd, nil
}

// placementPass is one closed-loop run of the solve list.
type placementPass struct {
	resps []*server.SolveResponse
	lat   *latencySet
	wall  time.Duration
	// cpu is the process's CPU time over the pass.
	cpu time.Duration
}

// closedLoop sends every entry of the list over two clients, each
// sending its next solve only after the previous reply.
func (pd *placementDaemon) closedLoop(ctx context.Context, in *placementInputs) (*placementPass, error) {
	resps := make([]*server.SolveResponse, len(in.list))
	lat := &latencySet{}
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.list) {
					return
				}
				e := &in.list[i]
				var resp *server.SolveResponse
				el, err := pd.call(ctx, "solve", fmt.Sprintf("solve-%d", i), func(ctx context.Context) error {
					var err error
					resp, err = pd.cl.Solve(ctx, pd.ids[e.t.topo], &e.req)
					return err
				})
				if err != nil {
					lat.fail()
					continue
				}
				lat.add(el)
				resps[i] = resp
			}
		}()
	}
	wg.Wait()
	p := &placementPass{resps: resps, lat: lat, wall: time.Since(start)}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	return p, nil
}

// quality is the mean placement quality over a solve list.
type quality struct {
	cost, gini float64
	// hops is the mean hop distance from a node to the nearest copy of a
	// chunk, over every chunk of every solve and every node but the
	// producer, which holds every chunk.
	hops float64
}

// checkPlacements checks every solve response and returns the mean
// quality over the list.
func checkPlacements(rep *report, in *placementInputs, resps []*server.SolveResponse) quality {
	evals := make(map[string]*metrics.Eval)
	var q quality
	hopSum, hopN := 0, 0
	op := rep.op("solve")
	for i, resp := range resps {
		e := &in.list[i]
		op.attempted++
		if resp == nil {
			op.failed++
			continue
		}
		g, p := in.graphs[e.t.topo], in.producers[e.t.topo]
		if resp.Algorithm != e.t.alg {
			rep.fail("solve", "entry %d: algorithm %q, requested %q", i, resp.Algorithm, e.t.alg)
			continue
		}
		if msg := checkPlacement(resp, g.NumNodes(), p, e.t.chunks, placementCapacity, e.caps); msg != "" {
			rep.fail("solve", "entry %d (%s on %s): %s", i, e.t.class, placementTopos[e.t.topo].name, msg)
			continue
		}
		hj, _ := json.Marshal(resp.Holders)
		if e.kind == "repeat" && resps[e.of] != nil {
			if oj, _ := json.Marshal(resps[e.of].Holders); string(oj) != string(hj) {
				rep.fail("solve", "entry %d repeats entry %d but its holders differ", i, e.of)
				continue
			}
		}
		capsJSON, _ := json.Marshal(e.caps)
		key := fmt.Sprintf("%d|%s|%s|%s", e.t.topo, e.t.alg, capsJSON, hj)
		ev, ok := evals[key]
		if !ok {
			var err error
			ev, err = metrics.Evaluate(g, capState(g.NumNodes(), placementCapacity, e.caps), p, resp.Holders, accessStrategy(e.t.alg))
			if err != nil {
				rep.fail("solve", "entry %d: evaluating holders: %v", i, err)
				continue
			}
			evals[key] = ev
		}
		if msg := checkCost(resp, ev); msg != "" {
			rep.fail("solve", "entry %d (%s on %s): %s", i, e.t.class, placementTopos[e.t.topo].name, msg)
			continue
		}
		q.cost += resp.TotalCost
		q.gini += resp.Gini
		dist := in.dists[e.t.topo]
		for _, hs := range resp.Holders {
			for v := range dist {
				if v != p {
					_, h := nearest(dist[v], hs, p)
					hopSum += h
					hopN++
				}
			}
		}
	}
	n := float64(len(resps))
	q.cost /= n
	q.gini /= n
	q.hops = float64(hopSum) / float64(max(hopN, 1))
	return q
}

func runPlacement(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	in, err := makePlacementInputs(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	in.describe(rep)
	if cfg.dry {
		return rep, nil
	}
	setup := func() (*placementDaemon, error) { return setupPlacement(ctx, in, nil) }
	setupStart := time.Now()
	pd, before, err := timedSetups(cfg.trace, setup)
	if err != nil {
		return nil, err
	}
	setupWall := time.Since(setupStart)
	pass, err := pd.closedLoop(ctx, in)
	pd.close()
	if err != nil {
		return nil, err
	}
	q := checkPlacements(rep, in, pass.resps)
	s := pass.lat.summarize()
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
		rep.setCPU(pass.cpu, len(in.list))
		rep.set("access_hops", q.hops, "hops")
		rep.latency("solve_ms", s)
		rep.set("solves_per_s", float64(len(in.list))/pass.wall.Seconds(), "1/s")
		rep.set("placement_cost", q.cost, "contention")
		rep.set("placement_gini", q.gini, "ratio")
		return rep, nil
	}
	return rep, tracePlacement(ctx, cfg, rep, in, pass.resps, s)
}
