package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/graph"
	"repro/internal/sim"
)

// This file keeps the map-based implementation of a device's Algorithm 2
// state machine as the oracle of the differential test: every per-node
// table of node.go is a map here, candidates are sorted on every tick and
// localPathCosts is a map-driven O(V²) Dijkstra. It follows the same tie
// rule as node.go (covered ADMINs: producer first, then lowest cost, then
// lowest id; SPAN payments summed in the order their senders first asked)
// so that its outcomes are defined, not map-order accidents.

// refPeerInfo is the contention knowledge gathered about a k-hop neighbor.
type refPeerInfo struct {
	weight     float64
	hasStorage bool
	neighbors  []int
}

// refNode implements the per-device protocol of Algorithm 2 for one chunk.
type refNode struct {
	id       int
	producer int
	opts     Options

	weight     float64
	fairness   float64
	hasStorage bool

	state    nodeState
	assigned int

	prodCost float64
	ccSent   bool
	ccRound  int

	adminCost map[int]float64

	peers    map[int]refPeerInfo
	conTo    map[int]float64
	conDirty bool

	alpha     float64
	gamma     map[int]float64
	sentTight map[int]bool
	sentSpan  map[int]bool

	requesters []int
	inT        map[int]bool
	spanPaid   map[int]float64
}

var _ sim.Node = (*refNode)(nil)

func newRefNode(id, producer int, weight, fairness float64, hasStorage bool, opts Options) *refNode {
	n := &refNode{
		id:         id,
		producer:   producer,
		opts:       opts,
		weight:     weight,
		fairness:   fairness,
		hasStorage: hasStorage,
		state:      stateActive,
		assigned:   -1,
		prodCost:   math.Inf(1),
		adminCost:  make(map[int]float64),
		peers:      make(map[int]refPeerInfo),
		conTo:      make(map[int]float64),
		gamma:      make(map[int]float64),
		sentTight:  make(map[int]bool),
		sentSpan:   make(map[int]bool),
		inT:        make(map[int]bool),
		spanPaid:   make(map[int]float64),
		ccRound:    -1,
	}
	if id == producer {
		n.state = stateFrozen
		n.assigned = id
	}
	return n
}

func (n *refNode) Init(ctx *sim.Context) {
	if n.id == n.producer {
		ctx.SendNeighbors(npi{Producer: n.id, Accum: n.weight})
	}
}

func (n *refNode) OnReceive(ctx *sim.Context, from int, p sim.Payload) {
	switch m := p.(type) {
	case npi:
		n.onNPI(ctx, m)
	case cc:
		ctx.Send(from, ccResp{
			Weight:     n.weight,
			HasStorage: n.hasStorage,
			Neighbors:  append([]int(nil), ctx.Neighbors()...),
		})
	case ccResp:
		n.peers[from] = refPeerInfo{weight: m.Weight, hasStorage: m.HasStorage, neighbors: m.Neighbors}
		n.conDirty = true
	case tight:
		n.onRequest(ctx, from, 0, false)
	case span:
		n.onRequest(ctx, from, m.Paid, true)
	case freeze:
		n.onFreeze(m)
	case nadmin:
		n.onNAdmin(ctx, from)
	case badmin:
		n.onBAdmin(ctx, m)
	}
}

func (n *refNode) onNPI(ctx *sim.Context, m npi) {
	if n.id == n.producer {
		return
	}
	cost := m.Accum + n.weight
	if cost < n.prodCost {
		n.prodCost = cost
		ctx.SendNeighbors(npi{Producer: m.Producer, Accum: m.Accum + n.weight})
	}
	if !n.ccSent && n.state == stateActive {
		n.ccSent = true
		n.ccRound = ctx.Round()
		ctx.SendKHop(n.opts.K, cc{})
	}
}

func (n *refNode) onRequest(ctx *sim.Context, from int, paid float64, isSpan bool) {
	if !n.inT[from] {
		n.inT[from] = true
		n.requesters = append(n.requesters, from)
	}
	switch n.state {
	case stateFrozen:
		target := n.assigned
		if n.id == n.producer {
			target = n.id
		}
		ctx.Send(from, freeze{Admin: target})
		return
	case stateAdmin:
		ctx.Send(from, freeze{Admin: n.id})
		return
	}
	if !isSpan {
		return
	}
	if paid > n.spanPaid[from] {
		n.spanPaid[from] = paid
	}
	n.maybeBecomeAdmin(ctx)
}

func (n *refNode) maybeBecomeAdmin(ctx *sim.Context) {
	if n.state != stateActive || !n.hasStorage {
		return
	}
	if len(n.spanPaid) < n.opts.SpanQuorum {
		return
	}
	// The tie rule: payments summed in the order their senders first
	// asked (a requester without a positive payment adds nothing).
	total := 0.0
	for _, j := range n.requesters {
		total += n.spanPaid[j]
	}
	if total < n.fairness {
		return
	}
	n.state = stateAdmin
	n.assigned = n.id
	for _, j := range n.requesters {
		ctx.Send(j, nadmin{})
	}
	ctx.SendNeighbors(badmin{Admin: n.id, Accum: n.weight})
}

func (n *refNode) onFreeze(m freeze) {
	if n.state != stateActive {
		return
	}
	cost := math.Inf(1)
	switch {
	case m.Admin == n.producer:
		cost = n.prodCost
	default:
		if c, ok := n.adminCost[m.Admin]; ok {
			cost = c
		}
	}
	if n.alpha >= cost {
		n.state = stateFrozen
		n.assigned = m.Admin
	}
}

func (n *refNode) onNAdmin(ctx *sim.Context, from int) {
	if n.state != stateActive {
		return
	}
	n.state = stateFrozen
	n.assigned = from
	for _, j := range n.requesters {
		ctx.Send(j, freeze{Admin: from})
	}
}

func (n *refNode) onBAdmin(ctx *sim.Context, m badmin) {
	if m.Admin == n.id {
		return
	}
	cost := m.Accum + n.weight
	if old, ok := n.adminCost[m.Admin]; !ok || cost < old {
		n.adminCost[m.Admin] = cost
		ctx.SendNeighbors(badmin{Admin: m.Admin, Accum: m.Accum + n.weight})
	}
	if n.state == stateActive && n.alpha >= n.adminCost[m.Admin] {
		n.state = stateFrozen
		n.assigned = m.Admin
	}
}

func (n *refNode) OnTick(ctx *sim.Context) {
	if n.state != stateActive {
		return
	}
	if n.ccRound < 0 || ctx.Round() < n.ccRound+2 {
		return
	}
	n.alpha += n.opts.AlphaStep

	// The tie rule: producer first, then lowest cost, then lowest id.
	bestOpen, bestCost := -1, math.Inf(1)
	if n.alpha >= n.prodCost {
		bestOpen, bestCost = n.producer, n.prodCost
	}
	for a, c := range n.adminCost {
		if n.alpha < c {
			continue
		}
		if c < bestCost || (c == bestCost && bestOpen != n.producer && a < bestOpen) {
			bestOpen, bestCost = a, c
		}
	}
	if bestOpen >= 0 {
		n.state = stateFrozen
		n.assigned = bestOpen
		return
	}

	n.refreshCon()
	for _, j := range n.candidateOrder() {
		c := n.conTo[j]
		if n.alpha >= c && !n.sentTight[j] {
			n.sentTight[j] = true
			ctx.Send(j, tight{})
		}
		if n.sentTight[j] {
			n.gamma[j] += n.opts.GammaStep
			if n.gamma[j] >= c && !n.sentSpan[j] {
				n.sentSpan[j] = true
				ctx.Send(j, span{Paid: n.alpha - c})
			}
		}
	}
}

func (n *refNode) refreshCon() {
	if !n.conDirty {
		return
	}
	n.conDirty = false
	n.conTo = refLocalPathCosts(n.id, n.weight, n.peers)
	for j := range n.conTo {
		info, ok := n.peers[j]
		if !ok || !info.hasStorage || j == n.producer {
			delete(n.conTo, j)
		}
	}
}

func (n *refNode) candidateOrder() []int {
	out := make([]int, 0, len(n.conTo))
	for j := range n.conTo {
		out = append(out, j)
	}
	slices.Sort(out)
	return out
}

func (n *refNode) Done() bool { return n.state != stateActive }

func refLocalPathCosts(self int, selfWeight float64, peers map[int]refPeerInfo) map[int]float64 {
	weight := map[int]float64{self: selfWeight}
	adj := map[int][]int{}
	known := map[int]bool{self: true}
	for id, info := range peers {
		weight[id] = info.weight
		known[id] = true
	}
	addEdge := func(u, v int) {
		if known[u] && known[v] {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	for id, info := range peers {
		for _, nb := range info.neighbors {
			addEdge(id, nb)
		}
	}

	dist := map[int]float64{self: selfWeight}
	done := map[int]bool{}
	for {
		u, best := -1, math.Inf(1)
		for id, d := range dist {
			if !done[id] && d < best {
				u, best = id, d
			}
		}
		if u == -1 {
			break
		}
		done[u] = true
		for _, v := range adj[u] {
			d, ok := dist[v]
			if !ok {
				d = math.Inf(1)
			}
			if nd := best + weight[v]; nd < d {
				dist[v] = nd
			}
		}
	}
	delete(dist, self)
	return dist
}

// refPlaceChunks is PlaceChunksCtx on reference nodes: a fresh network
// per chunk, each chunk's admins committed into st before the next.
func refPlaceChunks(g *graph.Graph, opts Options, producer, chunks int, st *cache.State) ([]ChunkRun, error) {
	pr, err := New(g, opts)
	if err != nil {
		return nil, err
	}
	opts = pr.opts
	var runs []ChunkRun
	for chunk := 0; chunk < chunks; chunk++ {
		weights := contention.Weights(g, st)
		nodes := make([]*refNode, g.NumNodes())
		simNodes := make([]sim.Node, g.NumNodes())
		for i := range nodes {
			fairness := st.CombinedFairnessCost(i, opts.FairnessWeight, opts.BatteryWeight)
			hasStorage := st.Free(i) > 0 && !math.IsInf(fairness, 1)
			nodes[i] = newRefNode(i, producer, weights[i], fairness, hasStorage, opts)
			simNodes[i] = nodes[i]
		}
		network, err := sim.NewNetwork(g, simNodes)
		if err != nil {
			return nil, err
		}
		network.Drop = opts.Drop
		network.Trace = opts.Trace
		maxRounds := opts.MaxRounds
		if maxRounds == 0 {
			maxRounds = pr.roundBound(producer, weights)
		}
		rounds, err := network.Run(context.Background(), maxRounds)
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", chunk, err)
		}
		run := ChunkRun{Chunk: chunk, Assign: make([]int, len(nodes)), Rounds: rounds, Messages: network.Counts()}
		for i, nd := range nodes {
			run.Assign[i] = nd.assigned
			if nd.state == stateAdmin {
				run.CacheNodes = append(run.CacheNodes, i)
			}
		}
		for _, v := range run.CacheNodes {
			if err := st.Store(v, chunk); err != nil {
				return nil, fmt.Errorf("chunk %d store on %d: %w", chunk, v, err)
			}
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// delivered is one message the simulator delivered, with the payload
// fields that carry a node id or a value.
type delivered struct {
	round, from, to, id int
	kind                string
	value               float64
}

// recordTo returns a sim.TraceFunc appending every delivered message to
// *log.
func recordTo(log *[]delivered) sim.TraceFunc {
	return func(round, from, to int, p sim.Payload) {
		d := delivered{round: round, from: from, to: to, kind: p.Kind()}
		switch m := p.(type) {
		case npi:
			d.id, d.value = m.Producer, m.Accum
		case badmin:
			d.id, d.value = m.Admin, m.Accum
		case span:
			d.value = m.Paid
		case freeze:
			d.id = m.Admin
		case ccResp:
			d.value = m.Weight
		}
		*log = append(*log, d)
	}
}

// dropEvery returns a deterministic loss pattern: every k-th message
// other than the NPI flood (whose loss can leave a node unbidding).
func dropEvery(k int) sim.DropFunc {
	if k == 0 {
		return nil
	}
	count := 0
	return func(from, to int, p sim.Payload) bool {
		if p.Kind() == KindNPI {
			return false
		}
		count++
		return count%k == 0
	}
}

// diffTopology draws a 3×3–8×8 grid, a clustered graph or a random
// connected graph.
func diffTopology(t *testing.T, rng *rand.Rand) *graph.Graph {
	switch rng.Intn(3) {
	case 0:
		return graph.NewGrid(3+rng.Intn(6), 3+rng.Intn(6))
	case 1:
		g, err := graph.Clustered{Clusters: 2 + rng.Intn(3), Size: 3 + rng.Intn(6), IntraProb: 0.4, Bridges: 2}.Generate(rng)
		if err != nil {
			t.Fatal(err)
		}
		return g
	default:
		return randomConnectedGraph(rng, 4+rng.Intn(27))
	}
}

// TestNodeMatchesReference runs Algorithm 2 on the slice-based nodes and
// on the map-based reference over 2,000 seeded chunk runs and requires
// identical outcomes: admins, assignments, rounds, per-kind message
// counts and every delivered message, in order. The instances vary the
// topology, hop limit K, capacity, steps, quorum, fairness and battery
// weights, and message loss; GammaStep 8 makes SPANs that pay nothing.
func TestNodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	runs, inst := 0, 0
	for ; runs < 2000; inst++ {
		g := diffTopology(t, rng)
		n := g.NumNodes()
		opts := DefaultOptions()
		opts.K = 1 + rng.Intn(3)
		opts.AlphaStep = []float64{1, 1, 0.5}[rng.Intn(3)]
		opts.GammaStep = []float64{1, 2, 3, 8}[rng.Intn(4)]
		opts.SpanQuorum = 1 + rng.Intn(3)
		opts.FairnessWeight = []float64{0, 1, 2}[rng.Intn(3)]
		capacity := []int{1, 3, 5}[rng.Intn(3)]
		var levels []float64
		if rng.Intn(2) == 0 {
			opts.BatteryWeight = 0.5 + rng.Float64()
			for range n {
				levels = append(levels, 0.05+0.95*rng.Float64())
			}
		}
		loss := 0
		if rng.Intn(3) == 0 {
			loss = 3 + rng.Intn(8)
		}
		producer := rng.Intn(n)
		chunks := 1 + rng.Intn(4)
		state := func() *cache.State {
			st := cache.NewState(n, capacity)
			for i, l := range levels {
				st.SetBattery(i, l)
			}
			return st
		}
		name := fmt.Sprintf("instance %d (%d nodes, producer %d, %+v, capacity %d, loss %d)", inst, n, producer, opts, capacity, loss)

		var gotLog, wantLog []delivered
		gotOpts, wantOpts := opts, opts
		gotOpts.Drop, gotOpts.Trace = dropEvery(loss), recordTo(&gotLog)
		wantOpts.Drop, wantOpts.Trace = dropEvery(loss), recordTo(&wantLog)
		pr, err := New(g, gotOpts)
		if err != nil {
			t.Fatal(err)
		}
		var got []ChunkRun
		p, gotErr := pr.PlaceChunksCtx(context.Background(), producer, chunks, state())
		if gotErr == nil {
			got = p.Chunks
		}
		want, wantErr := refPlaceChunks(g, wantOpts, producer, chunks, state())
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: runs differ\n got %+v\nwant %+v", name, got, want)
		}
		if i := firstDifference(gotLog, wantLog); i >= 0 {
			t.Fatalf("%s: delivered message %d differs (%d vs %d messages)", name, i, len(gotLog), len(wantLog))
		}
		runs += chunks
	}
	t.Logf("%d chunk runs over %d instances", runs, inst)
}

// firstDifference returns the first index where the logs differ, or -1.
func firstDifference(a, b []delivered) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// puppet replays a scripted list of sends, one round at a time.
type puppet struct {
	sends []scriptedSend // by round
	next  int
}

type scriptedSend struct {
	round, to int
	p         sim.Payload
}

func (p *puppet) Init(*sim.Context)                        {}
func (p *puppet) OnReceive(*sim.Context, int, sim.Payload) {}
func (p *puppet) Done() bool                               { return p.next == len(p.sends) }
func (p *puppet) OnTick(ctx *sim.Context) {
	for ; p.next < len(p.sends) && p.sends[p.next].round == ctx.Round(); p.next++ {
		ctx.Send(p.sends[p.next].to, p.sends[p.next].p)
	}
}

// TestNodeMatchesReferenceOnScripts drives one device, node 0, with
// scripted neighbors and compares it with the reference on message orders
// the protocol itself does not produce: CC responses split over two
// rounds (in a real run they arrive in one round, in id order), requests
// repeated or paying nothing, redirects and ADMIN announcements from
// anywhere. Both must send the same messages and end in the same state.
func TestNodeMatchesReferenceOnScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	for inst := 0; inst < 500; inst++ {
		g := randomConnectedGraph(rng, 4+rng.Intn(12))
		n := g.NumNodes()
		opts := DefaultOptions()
		opts.K = 1 + rng.Intn(3)
		opts.AlphaStep = []float64{1, 0.5}[rng.Intn(2)]
		opts.GammaStep = []float64{1, 2, 8}[rng.Intn(3)]
		opts.SpanQuorum = 1 + rng.Intn(3)
		producer := 1 + rng.Intn(n-1)
		weight, fairness, hasStorage := float64(1+rng.Intn(4)), float64(rng.Intn(6)), rng.Intn(4) > 0

		scripts := make([][]scriptedSend, n)
		add := func(from, round int, p sim.Payload) {
			scripts[from] = append(scripts[from], scriptedSend{round: round, to: 0, p: p})
		}
		add(producer, 0, npi{Producer: producer, Accum: float64(4 + rng.Intn(20))})
		for _, v := range g.KHopNeighbors(0, opts.K) {
			if rng.Intn(10) > 0 {
				add(v, rng.Intn(3), ccResp{Weight: float64(1 + rng.Intn(5)), HasStorage: rng.Intn(4) > 0, Neighbors: g.Neighbors(v)})
			}
		}
		for range 4 + rng.Intn(20) {
			from, round := 1+rng.Intn(n-1), 1+rng.Intn(20)
			switch rng.Intn(6) {
			case 0:
				add(from, round, tight{})
			case 1, 2:
				add(from, round, span{Paid: []float64{0, 0, 0.5, 1, 2.25, 4}[rng.Intn(6)]})
			case 3:
				add(from, round, badmin{Admin: 1 + rng.Intn(n-1), Accum: float64(rng.Intn(20))})
			case 4:
				add(from, round, freeze{Admin: rng.Intn(n)})
			default:
				add(from, round, nadmin{})
			}
		}
		for _, s := range scripts {
			slices.SortStableFunc(s, func(a, b scriptedSend) int { return a.round - b.round })
		}

		run := func(self sim.Node) ([]delivered, int, error) {
			nodes := []sim.Node{self}
			for v := 1; v < n; v++ {
				nodes = append(nodes, &puppet{sends: scripts[v]})
			}
			network, err := sim.NewNetwork(g, nodes)
			if err != nil {
				t.Fatal(err)
			}
			var log []delivered
			network.Trace = recordTo(&log)
			rounds, err := network.Run(context.Background(), 500)
			return log, rounds, err
		}
		nd := node{id: 0, producer: producer, opts: &opts, scr: newPathScratch(n)}
		nd.reset(weight, fairness, hasStorage)
		ref := newRefNode(0, producer, weight, fairness, hasStorage, opts)
		gotLog, gotRounds, gotErr := run(&nd)
		wantLog, wantRounds, wantErr := run(ref)
		if gotRounds != wantRounds || !errors.Is(gotErr, wantErr) {
			t.Fatalf("script %d: rounds %d (%v), reference %d (%v)", inst, gotRounds, gotErr, wantRounds, wantErr)
		}
		if i := firstDifference(gotLog, wantLog); i >= 0 {
			t.Fatalf("script %d: delivered message %d differs (%d vs %d messages)", inst, i, len(gotLog), len(wantLog))
		}
		if nd.state != ref.state || nd.assigned != ref.assigned {
			t.Fatalf("script %d: state %v onto %d, reference %v onto %d", inst, nd.state, nd.assigned, ref.state, ref.assigned)
		}
	}
}
