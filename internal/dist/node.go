package dist

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sim"
)

// nodeState follows the paper's terminology: a node is ACTIVE while
// bidding, FROZEN (inactive) once it knows where to obtain the chunk, and
// ADMIN if it volunteered to cache it.
type nodeState int

const (
	stateActive nodeState = iota + 1
	stateFrozen
	stateAdmin
)

// peer is what a CC response taught the collector about one k-hop
// neighbor.
type peer struct {
	id         int
	weight     float64
	hasStorage bool
	neighbors  []int // the graph's adjacency row: read-only
}

// candidate is a storage-bearing k-hop neighbor the node bids on: its
// contention cost from the bidder, the relay bid γ raised toward it, and
// whether TIGHT and SPAN went out to it.
type candidate struct {
	id        int
	cost      float64
	gamma     float64
	sentTight bool
	sentSpan  bool
}

// knownAdmin is an ADMIN learned from a BADMIN flood, with the cheapest
// path cost announced for it.
type knownAdmin struct {
	id   int
	cost float64
}

// requester is a member of the paper's set T (a node that sent TIGHT or
// SPAN) with its SPAN payment, 0 until it pays.
type requester struct {
	id   int
	paid float64
}

// node implements the per-device protocol of Algorithm 2 for one chunk.
// Its tables are slices: PlaceChunksCtx resets a node between chunks and
// keeps their storage.
type node struct {
	id       int
	producer int
	opts     *Options
	scr      *pathScratch

	weight     float64 // own w_i·(1+S(i))
	fairness   float64 // own Fairness Degree Cost f_i (weighted)
	hasStorage bool

	state    nodeState
	assigned int

	// ccAnswer is the node's CC response for this chunk, once asked.
	ccAnswer sim.Payload

	// Producer reachability learned from the NPI flood.
	prodCost float64
	ccSent   bool
	// ccRound is the round the CC collection was issued; bidding starts
	// only after the collection round-trip has completed, so that nodes
	// race on equal information rather than on message latency.
	ccRound int

	// admins holds the ADMINs learned from BADMIN floods, in the order
	// their first announcement arrived.
	admins []knownAdmin

	// peers holds the CC responses in arrival order; cands is built from
	// them (see refreshCon) and ordered by id.
	peers    []peer
	cands    []candidate
	conDirty bool

	alpha float64

	// requesters is the set T in first-contact order; spanners counts
	// those with a positive payment (the SPAN quorum).
	requesters []requester
	spanners   int
}

var _ sim.Node = (*node)(nil)

// reset starts a chunk: the node's own contention weight, fairness cost
// and free storage, and empty protocol tables that keep their storage.
func (n *node) reset(weight, fairness float64, hasStorage bool) {
	*n = node{
		id: n.id, producer: n.producer, opts: n.opts, scr: n.scr,
		weight: weight, fairness: fairness, hasStorage: hasStorage,
		state: stateActive, assigned: -1, prodCost: math.Inf(1), ccRound: -1,
		admins: n.admins[:0], peers: n.peers[:0], cands: n.cands[:0],
		requesters: n.requesters[:0],
	}
	if n.id == n.producer {
		n.state, n.assigned = stateFrozen, n.id
	}
}

// Init: the producer floods the NPI announcement (its accumulated cost is
// its own weight) — every other node reacts to receiving it.
func (n *node) Init(ctx *sim.Context) {
	if n.id == n.producer {
		ctx.SendNeighbors(npi{Producer: n.id, Accum: n.weight})
	}
}

func (n *node) OnReceive(ctx *sim.Context, from int, p sim.Payload) {
	switch m := p.(type) {
	case npi:
		n.onNPI(ctx, m)
	case cc:
		// Every collector of a chunk gets the same answer: box it once.
		if n.ccAnswer == nil {
			n.ccAnswer = ccResp{Weight: n.weight, HasStorage: n.hasStorage, Neighbors: ctx.Neighbors()}
		}
		ctx.Send(from, n.ccAnswer)
	case ccResp:
		n.peers = append(n.peers, peer{id: from, weight: m.Weight, hasStorage: m.HasStorage, neighbors: m.Neighbors})
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

// onNPI handles the flooded chunk announcement: track the cheapest path to
// the producer, re-flood improvements, and kick off contention collection.
func (n *node) onNPI(ctx *sim.Context, m npi) {
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

// onRequest handles TIGHT and SPAN: remember the requester; frozen and
// ADMIN nodes answer immediately; active candidates accumulate SPAN
// support and volunteer once the quorum and the fairness payment are met.
func (n *node) onRequest(ctx *sim.Context, from int, paid float64, isSpan bool) {
	r := n.requester(from)
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
	if paid > r.paid {
		if r.paid == 0 {
			n.spanners++
		}
		r.paid = paid
	}
	n.maybeBecomeAdmin(ctx)
}

// requester returns from's entry in the set T, adding it on first
// contact.
func (n *node) requester(from int) *requester {
	for i := range n.requesters {
		if n.requesters[i].id == from {
			return &n.requesters[i]
		}
	}
	n.requesters = append(n.requesters, requester{id: from})
	return &n.requesters[len(n.requesters)-1]
}

// maybeBecomeAdmin applies the ADMIN condition: enough SPAN supporters
// (the quorum M) and enough surplus payment to cover the node's own
// fairness cost. Payments are summed in the order their senders first
// contacted the node, so a sum of three or more payments rounds the same
// way on every run.
func (n *node) maybeBecomeAdmin(ctx *sim.Context) {
	if n.state != stateActive || !n.hasStorage || n.spanners < n.opts.SpanQuorum {
		return
	}
	total := 0.0
	for _, r := range n.requesters {
		total += r.paid
	}
	if total < n.fairness {
		return
	}
	n.state = stateAdmin
	n.assigned = n.id
	for _, r := range n.requesters {
		ctx.Send(r.id, nadmin{})
	}
	ctx.SendNeighbors(badmin{Admin: n.id, Accum: n.weight})
	// The data chunk itself is then proactively requested from the
	// producer; the dissemination cost is evaluated by the Steiner-tree
	// metric, not by protocol messages.
}

// admin returns the known ADMIN id, or nil. A BADMIN flood is a wave,
// so the newest announcement is the likeliest match: the scan starts
// there.
func (n *node) admin(id int) *knownAdmin {
	for i := len(n.admins) - 1; i >= 0; i-- {
		if n.admins[i].id == id {
			return &n.admins[i]
		}
	}
	return nil
}

// onFreeze handles a redirect toward data holder m.Admin. Mirroring the
// centralized dual growth — where a demand freezes only once its bid
// covers an *open* facility — the redirect is accepted only when the
// node's bid covers the known cost to that holder; otherwise the node
// keeps bidding and will freeze through its own tick logic later.
func (n *node) onFreeze(m freeze) {
	if n.state != stateActive {
		return
	}
	cost := math.Inf(1)
	if m.Admin == n.producer {
		cost = n.prodCost
	} else if a := n.admin(m.Admin); a != nil {
		cost = a.cost
	}
	if n.alpha >= cost {
		n.state = stateFrozen
		n.assigned = m.Admin
	}
}

// onNAdmin: the candidate we supported became an ADMIN; adopt it and tell
// our own requesters where data will be.
func (n *node) onNAdmin(ctx *sim.Context, from int) {
	if n.state != stateActive {
		return
	}
	n.state = stateFrozen
	n.assigned = from
	for _, r := range n.requesters {
		ctx.Send(r.id, freeze{Admin: from})
	}
}

// onBAdmin handles the network-wide ADMIN announcement flood.
func (n *node) onBAdmin(ctx *sim.Context, m badmin) {
	if m.Admin == n.id {
		return
	}
	a := n.admin(m.Admin)
	if a == nil {
		n.admins = append(n.admins, knownAdmin{id: m.Admin, cost: math.Inf(1)})
		a = &n.admins[len(n.admins)-1]
	}
	if cost := m.Accum + n.weight; cost < a.cost {
		a.cost = cost
		ctx.SendNeighbors(badmin{Admin: m.Admin, Accum: cost})
	}
	if n.state == stateActive && n.alpha >= a.cost {
		n.state = stateFrozen
		n.assigned = m.Admin
	}
}

// OnTick grows the bids and issues TIGHT/SPAN/freeze transitions.
func (n *node) OnTick(ctx *sim.Context) {
	if n.state != stateActive {
		return
	}
	// Wait for the contention-collection round trip before bidding.
	if n.ccRound < 0 || ctx.Round() < n.ccRound+2 {
		return
	}
	n.alpha += n.opts.AlphaStep

	// Connect to the producer or a known ADMIN when the bid covers it —
	// the TIGHT-with-an-open-facility case of the centralized algorithm.
	// Among covered holders the producer comes first, then the lowest
	// cost, then the lowest id.
	bestOpen, bestCost := -1, math.Inf(1)
	if n.alpha >= n.prodCost {
		bestOpen, bestCost = n.producer, n.prodCost
	}
	for _, a := range n.admins {
		if n.alpha >= a.cost && (a.cost < bestCost || a.cost == bestCost && bestOpen != n.producer && a.id < bestOpen) {
			bestOpen, bestCost = a.id, a.cost
		}
	}
	if bestOpen >= 0 {
		n.state = stateFrozen
		n.assigned = bestOpen
		return
	}

	n.refreshCon(ctx.Neighbors())
	for i := range n.cands {
		c := &n.cands[i]
		if c.sentSpan {
			continue // its bids no longer send anything
		}
		if n.alpha >= c.cost && !c.sentTight {
			c.sentTight = true
			ctx.Send(c.id, tight{})
		}
		if c.sentTight {
			c.gamma += n.opts.GammaStep
			if c.gamma >= c.cost {
				c.sentSpan = true
				ctx.Send(c.id, span{Paid: n.alpha - c.cost})
			}
		}
	}
}

// refreshCon builds the candidate table from the CC responses: the
// storage-bearing peers other than the producer that the known subgraph
// reaches, with their contention costs, in id order. nbrs is the node's
// own adjacency. Every CC response reaches the collector in round
// ccRound+2, before its first bid, so the table is built once and no bid
// is lost to a rebuild.
func (n *node) refreshCon(nbrs []int) {
	if !n.conDirty {
		return
	}
	n.conDirty = false
	dist := localPathCosts(n.id, n.weight, nbrs, n.peers, n.scr)
	n.cands = n.cands[:0]
	for i, p := range n.peers {
		if p.hasStorage && p.id != n.producer && dist[i] < math.Inf(1) {
			n.cands = append(n.cands, candidate{id: p.id, cost: dist[i]})
		}
	}
	slices.SortFunc(n.cands, func(a, b candidate) int { return cmp.Compare(a.id, b.id) })
}

func (n *node) Done() bool { return n.state != stateActive }

// pathScratch is localPathCosts' workspace. The nodes of one
// PlaceChunksCtx call share one: the simulator runs them one at a time.
type pathScratch struct {
	local []int32   // node id → local index; -1 outside a call
	dist  []float64 // by local index
	open  []int32   // reached, unsettled local indices
}

// newPathScratch sizes a scratch for an n-node graph: a node knows at
// most n nodes, itself included.
func newPathScratch(n int) *pathScratch {
	scr := &pathScratch{
		local: make([]int32, n),
		dist:  make([]float64, n),
		open:  make([]int32, 0, n),
	}
	for i := range scr.local {
		scr.local[i] = -1
	}
	return scr
}

// localPathCosts runs a node-weighted Dijkstra over the locally known
// subgraph: self (local index 0, adjacency nbrs) and peers (local index
// i+1 for peers[i]), with edges between known nodes only. It returns the
// contention cost from self to each peer, both endpoints included, by
// peer index (+Inf when unreached); the slice is scr's and valid until
// the next call. The search scans its open list for the nearest node.
// Weights are non-negative, so a settled node is never improved again,
// and node-weighted distances do not depend on which of two equally near
// nodes settles first.
func localPathCosts(self int, selfWeight float64, nbrs []int, peers []peer, scr *pathScratch) []float64 {
	m := len(peers) + 1
	local, dist, open := scr.local, scr.dist[:m], scr.open[:0]
	local[self] = 0
	for i, p := range peers {
		local[p.id] = int32(i + 1)
	}
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = selfWeight
	open = append(open, 0)
	for len(open) > 0 {
		k := 0
		for i := 1; i < len(open); i++ {
			if dist[open[i]] < dist[open[k]] {
				k = i
			}
		}
		u := open[k]
		open[k] = open[len(open)-1]
		open = open[:len(open)-1]
		adj := nbrs
		if u > 0 {
			adj = peers[u-1].neighbors
		}
		for _, v := range adj {
			l := local[v]
			if l < 0 {
				continue
			}
			w := selfWeight
			if l > 0 {
				w = peers[l-1].weight
			}
			if nd := dist[u] + w; nd < dist[l] {
				if math.IsInf(dist[l], 1) {
					open = append(open, l)
				}
				dist[l] = nd
			}
		}
	}
	scr.open = open
	local[self] = -1
	for _, p := range peers {
		local[p.id] = -1
	}
	return dist[1:]
}
