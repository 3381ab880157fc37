package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/graph"
)

// pingPayload is a trivial test payload.
type pingPayload struct{ ttl int }

func (pingPayload) Kind() string { return "PING" }

// floodNode floods a PING with decreasing TTL and records receipt.
type floodNode struct {
	origin   bool
	received int
	done     bool
}

func (f *floodNode) Init(ctx *Context) {
	if f.origin {
		ctx.SendNeighbors(pingPayload{ttl: 3})
		f.done = true
	}
}

func (f *floodNode) OnReceive(ctx *Context, from int, p Payload) {
	ping, ok := p.(pingPayload)
	if !ok {
		return
	}
	f.received++
	if f.received == 1 && ping.ttl > 0 {
		ctx.SendNeighbors(pingPayload{ttl: ping.ttl - 1})
	}
	f.done = true
}

func (f *floodNode) OnTick(*Context) {}
func (f *floodNode) Done() bool      { return f.done }

func TestNewNetworkSizeMismatch(t *testing.T) {
	g := graph.NewGrid(2, 2)
	if _, err := NewNetwork(g, make([]Node, 3)); err == nil {
		t.Error("want error on node/graph size mismatch")
	}
}

func TestFloodReachesEveryNodeWithinTTL(t *testing.T) {
	g := graph.NewGrid(3, 3)
	nodes := make([]Node, 9)
	floods := make([]*floodNode, 9)
	for i := range nodes {
		floods[i] = &floodNode{origin: i == 0}
		nodes[i] = floods[i]
	}
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := net.Run(context.Background(), 50)
	if err != nil {
		t.Fatalf("Run: %v (rounds %d)", err, rounds)
	}
	// TTL 3 + origin hop covers distance up to 4: the whole 3x3 grid.
	for i := 1; i < 9; i++ {
		if floods[i].received == 0 {
			t.Errorf("node %d never received the flood", i)
		}
	}
	if got := net.Counts()["PING"]; got == 0 {
		t.Error("PING count = 0")
	}
	if net.TotalMessages() != net.Counts()["PING"] {
		t.Error("TotalMessages disagrees with per-kind counts")
	}
	if kinds := net.Kinds(); len(kinds) != 1 || kinds[0] != "PING" {
		t.Errorf("Kinds() = %v, want [PING]", kinds)
	}
}

func TestRunStopsWhenIdle(t *testing.T) {
	// Nodes that do nothing: the network must stop after round 1.
	g := graph.NewGrid(2, 2)
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &floodNode{done: false}
	}
	// floodNode.Done is false until it receives something; nothing is
	// ever sent, so Run must hit the limit.
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(context.Background(), 5); !errors.Is(err, ErrMaxRounds) {
		t.Errorf("err = %v, want ErrMaxRounds", err)
	}
}

func TestRunStopsOnContext(t *testing.T) {
	// Idle nodes never finish, so only the context can end an unbounded
	// run: a cancelled one before its first round, an expiring one soon
	// after its deadline.
	g := graph.NewGrid(2, 2)
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &floodNode{}
	}
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if rounds, err := net.Run(cancelled, 5); !errors.Is(err, context.Canceled) || rounds != 0 {
		t.Errorf("cancelled run: rounds %d, err %v; want 0, context.Canceled", rounds, err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer stop()
	start := time.Now()
	if _, err := net.Run(ctx, math.MaxInt); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("run stopped %v after a 20ms deadline", took)
	}
}

func TestRunRestartsEmpty(t *testing.T) {
	// A second run of the same network starts with no messages in flight
	// and fresh counters, so it repeats the first run exactly.
	g := graph.NewGrid(3, 3)
	floods := make([]*floodNode, 9)
	nodes := make([]Node, 9)
	for i := range nodes {
		floods[i] = &floodNode{origin: i == 0}
		nodes[i] = floods[i]
	}
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Stop the first run mid-flood so messages are left in flight.
	if _, err := net.Run(context.Background(), 1); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("short run: err = %v, want ErrMaxRounds", err)
	}
	var rounds [2]int
	var counts [2]map[string]int
	for r := range rounds {
		for i, f := range floods {
			*f = floodNode{origin: i == 0}
		}
		if rounds[r], err = net.Run(context.Background(), 50); err != nil {
			t.Fatal(err)
		}
		counts[r] = net.Counts()
	}
	if rounds[0] != rounds[1] || counts[0]["PING"] != counts[1]["PING"] || len(counts[1]) != 1 {
		t.Errorf("runs differ: rounds %v, counts %v", rounds, counts)
	}
}

func TestDropInjection(t *testing.T) {
	g := graph.NewGrid(3, 3)
	nodes := make([]Node, 9)
	floods := make([]*floodNode, 9)
	for i := range nodes {
		floods[i] = &floodNode{origin: i == 0}
		nodes[i] = floods[i]
	}
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Drop everything: no node other than the origin ever hears a PING,
	// so the run cannot finish (receivers stay not-done) — but counts
	// still record the attempted sends.
	net.Drop = func(from, to int, p Payload) bool { return true }
	if _, err := net.Run(context.Background(), 5); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds under total loss", err)
	}
	if net.Counts()["PING"] == 0 {
		t.Error("dropped messages not counted as attempted sends")
	}
	for i := 1; i < 9; i++ {
		if floods[i].received != 0 {
			t.Errorf("node %d received %d messages despite total loss", i, floods[i].received)
		}
	}
}

func TestPartialDropStillCompletes(t *testing.T) {
	g := graph.NewGrid(3, 3)
	nodes := make([]Node, 9)
	for i := range nodes {
		nodes[i] = &floodNode{origin: i == 4}
	}
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministically drop one of node 8's two incoming links (from 5);
	// the flood must still reach it via node 7.
	net.Drop = func(from, to int, p Payload) bool { return to == 8 && from == 5 }
	if _, err := net.Run(context.Background(), 50); err != nil {
		t.Fatalf("Run with partial loss: %v", err)
	}
}

func TestContextSendIgnoresBadTargets(t *testing.T) {
	g := graph.NewGrid(2, 2)
	nodes := make([]Node, 4)
	for i := range nodes {
		nodes[i] = &floodNode{done: true}
	}
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{net: net, self: 0}
	ctx.Send(-1, pingPayload{})
	ctx.Send(99, pingPayload{})
	ctx.Send(0, pingPayload{}) // self
	if len(net.outbox) != 0 {
		t.Errorf("outbox has %d messages, want 0", len(net.outbox))
	}
	if ctx.Self() != 0 {
		t.Errorf("Self() = %d", ctx.Self())
	}
	if ctx.Degree() != 2 {
		t.Errorf("Degree() = %d, want 2", ctx.Degree())
	}
	if got := ctx.KHop(2); len(got) != 3 {
		t.Errorf("KHop(2) = %v, want 3 nodes", got)
	}
}

func TestSendKHopCountsPerReceiver(t *testing.T) {
	g := graph.NewGrid(3, 3)
	nodes := make([]Node, 9)
	for i := range nodes {
		nodes[i] = &floodNode{done: true}
	}
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{net: net, self: 4}
	ctx.SendKHop(1, pingPayload{})
	if len(net.outbox) != 4 {
		t.Errorf("SendKHop(1) from center queued %d, want 4", len(net.outbox))
	}
	// Receivers are queued in KHop's id order.
	net.outbox = net.outbox[:0]
	ctx = &Context{net: net, self: 1}
	ctx.SendKHop(2, pingPayload{})
	want := ctx.KHop(2)
	if len(net.outbox) != len(want) {
		t.Fatalf("SendKHop(2) queued %d, want %d", len(net.outbox), len(want))
	}
	for i, d := range net.outbox {
		if d.to != want[i] {
			t.Errorf("SendKHop(2) receiver %d = %d, want %d (KHop order %v)", i, d.to, want[i], want)
		}
	}
}

func TestTraceObservesDeliveredMessages(t *testing.T) {
	g := graph.NewGrid(3, 3)
	nodes := make([]Node, 9)
	for i := range nodes {
		nodes[i] = &floodNode{origin: i == 0}
	}
	net, err := NewNetwork(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	var traced int
	net.Drop = func(from, to int, p Payload) bool { return to == 4 }
	net.Trace = func(round, from, to int, p Payload) {
		if to == 4 {
			t.Errorf("trace saw a dropped message to node 4")
		}
		if p.Kind() != "PING" {
			t.Errorf("unexpected kind %q", p.Kind())
		}
		traced++
	}
	// Node 4 never hears anything, so the run times out — that's fine,
	// the trace contract is what is under test.
	_, _ = net.Run(context.Background(), 30)
	delivered := net.Counts()["PING"]
	if traced == 0 || traced >= delivered {
		t.Errorf("traced %d of %d attempted messages; want >0 and < attempted (drops excluded)", traced, delivered)
	}
}
