// Package sim is a deterministic round-based message-passing simulator for
// wireless edge nodes. The distributed caching protocol (package dist) runs
// on top of it: nodes exchange typed payloads with direct neighbors or
// k-hop neighborhoods, the simulator delivers each message one round after
// it is sent, counts messages per type (the paper analyses message
// complexity per type in Sec. IV-D), and supports drop-based failure
// injection for robustness tests.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Payload is a typed message body. Kind is used for per-type accounting.
type Payload interface {
	Kind() string
}

// Node is the behaviour of one simulated device.
type Node interface {
	// Init runs once before the first round (e.g. the producer floods
	// its announcement here).
	Init(ctx *Context)
	// OnReceive handles one delivered payload.
	OnReceive(ctx *Context, from int, p Payload)
	// OnTick runs once per round after deliveries (timer-driven logic
	// such as bid growth).
	OnTick(ctx *Context)
	// Done reports whether the node has reached a terminal state. The
	// network stops when every node is done and no messages are in
	// flight.
	Done() bool
}

// DropFunc decides whether to drop a message (failure injection). It must
// be deterministic for reproducible runs.
type DropFunc func(from, to int, p Payload) bool

// TraceFunc observes every delivered message (after the drop decision),
// for protocol debugging and event logging. It must not mutate state.
type TraceFunc func(round, from, to int, p Payload)

// Network couples a topology with node behaviours and runs the protocol.
// A network may run many times; each run starts empty and reuses the
// previous run's queues and per-node contexts.
type Network struct {
	g     *graph.Graph
	nodes []Node
	// Drop, when non-nil, is consulted for every delivery.
	Drop DropFunc
	// Trace, when non-nil, observes every delivered message.
	Trace TraceFunc

	ctxs   []Context  // ctxs[i] is node i's handle in every callback
	inbox  []delivery // messages to deliver this round
	outbox []delivery // messages sent this round, delivered next round
	kinds  []string   // message kinds in first-send order
	counts []int      // counts[k] messages of kinds[k] sent this run
	last   int        // the kinds index count matched last
	round  int

	src  [1]int  // SendKHop's BFS source
	hops []int32 // SendKHop's BFS distances
	bfsq []int32 // SendKHop's BFS queue
}

type delivery struct {
	from, to int
	payload  Payload
}

// ErrMaxRounds reports that the protocol did not terminate in time.
var ErrMaxRounds = errors.New("sim: protocol did not terminate within the round limit")

// NewNetwork builds a network over g; nodes[i] drives node i.
func NewNetwork(g *graph.Graph, nodes []Node) (*Network, error) {
	if g.NumNodes() != len(nodes) {
		return nil, fmt.Errorf("sim: %d nodes for a %d-node graph", len(nodes), g.NumNodes())
	}
	n := &Network{
		g:     g,
		nodes: nodes,
		ctxs:  make([]Context, len(nodes)),
		hops:  make([]int32, len(nodes)),
	}
	for i := range n.ctxs {
		n.ctxs[i] = Context{net: n, self: i}
	}
	return n, nil
}

// Run executes rounds until every node is done and no messages are in
// flight, or maxRounds is exceeded, or ctx ends. It returns the number of
// rounds run. Each run starts from an empty network: the messages and
// counters of an earlier run are discarded, and the nodes are whatever
// state the caller left them in. ctx is checked before every round, so a
// cancelled or expired run stops within one round and returns ctx.Err().
func (n *Network) Run(ctx context.Context, maxRounds int) (int, error) {
	n.inbox, n.outbox = n.inbox[:0], n.outbox[:0]
	n.kinds, n.counts = n.kinds[:0], n.counts[:0]
	n.round = 0
	for i, node := range n.nodes {
		node.Init(&n.ctxs[i])
	}
	n.promoteOutbox()
	for n.round = 0; n.round < maxRounds; n.round++ {
		if err := ctx.Err(); err != nil {
			return n.round, err
		}
		for _, d := range n.inbox {
			n.nodes[d.to].OnReceive(&n.ctxs[d.to], d.from, d.payload)
		}
		n.inbox = n.inbox[:0]
		for i, node := range n.nodes {
			node.OnTick(&n.ctxs[i])
		}
		n.promoteOutbox()
		if len(n.inbox) == 0 && n.allDone() {
			return n.round + 1, nil
		}
	}
	return n.round, ErrMaxRounds
}

// promoteOutbox moves sent messages into next round's inbox, applying the
// drop hook and counting every attempted send.
func (n *Network) promoteOutbox() {
	for _, d := range n.outbox {
		n.count(d.payload.Kind())
		if n.Drop != nil && n.Drop(d.from, d.to, d.payload) {
			continue
		}
		if n.Trace != nil {
			n.Trace(n.round, d.from, d.to, d.payload)
		}
		n.inbox = append(n.inbox, d)
	}
	n.outbox = n.outbox[:0]
}

// count adds one message of the given kind. A protocol has a handful of
// kinds and sends them in runs (a flood, a k-hop collection), so the
// last kind counted is tried first, then the kinds seen so far: no
// message hashes its kind.
func (n *Network) count(kind string) {
	if k := n.last; k < len(n.kinds) && n.kinds[k] == kind {
		n.counts[k]++
		return
	}
	for k, seen := range n.kinds {
		if seen == kind {
			n.last = k
			n.counts[k]++
			return
		}
	}
	n.last = len(n.kinds)
	n.kinds = append(n.kinds, kind)
	n.counts = append(n.counts, 1)
}

func (n *Network) allDone() bool {
	for _, node := range n.nodes {
		if !node.Done() {
			return false
		}
	}
	return true
}

// Counts returns the per-kind message counters of the last run (attempted
// sends, including dropped ones) in a new map.
func (n *Network) Counts() map[string]int {
	out := make(map[string]int, len(n.kinds))
	for k, kind := range n.kinds {
		out[kind] = n.counts[k]
	}
	return out
}

// TotalMessages returns the total number of messages sent in the last run.
func (n *Network) TotalMessages() int {
	total := 0
	for _, v := range n.counts {
		total += v
	}
	return total
}

// Kinds returns the message kinds sent in the last run, sorted.
func (n *Network) Kinds() []string {
	out := slices.Clone(n.kinds)
	slices.Sort(out)
	return out
}

// Context is a node's handle onto the network during a callback.
type Context struct {
	net  *Network
	self int
}

// Self returns the node id being driven.
func (c *Context) Self() int { return c.self }

// Round returns the current round number.
func (c *Context) Round() int { return c.net.round }

// Neighbors returns the node's direct neighbors. The slice is shared and
// must not be modified.
func (c *Context) Neighbors() []int { return c.net.g.Neighbors(c.self) }

// Degree returns the node's degree (its Node Contention Cost).
func (c *Context) Degree() int { return c.net.g.Degree(c.self) }

// KHop returns the nodes within k hops of the caller (excluding itself).
func (c *Context) KHop(k int) []int { return c.net.g.KHopNeighbors(c.self, k) }

// Send queues a unicast payload to another node, delivered next round.
// Sends to out-of-range targets or to self are ignored.
func (c *Context) Send(to int, p Payload) {
	if to < 0 || to >= len(c.net.nodes) || to == c.self {
		return
	}
	c.net.outbox = append(c.net.outbox, delivery{from: c.self, to: to, payload: p})
}

// SendNeighbors queues the payload to every direct neighbor (a local
// wireless broadcast, counted as one message per receiver).
func (c *Context) SendNeighbors(p Payload) {
	for _, v := range c.net.g.Neighbors(c.self) {
		c.Send(v, p)
	}
}

// SendKHop queues the payload to every node within k hops, in id order
// (the order of KHop).
func (c *Context) SendKHop(k int, p Payload) {
	if k <= 0 {
		return
	}
	net := c.net
	net.src[0] = c.self
	net.bfsq = graph.BFS(net.g, net.src[:], k, net.hops, net.bfsq)
	for v, d := range net.hops {
		if v != c.self && d != graph.Unreachable {
			c.Send(v, p)
		}
	}
}
