package dist

import (
	"math"
	"testing"
)

// testNode returns node id of a producer-rooted run, reset for a chunk.
func testNode(id, producer int, weight, fairness float64, hasStorage bool, opts Options) *node {
	n := &node{id: id, producer: producer, opts: &opts, scr: newPathScratch(16)}
	n.reset(weight, fairness, hasStorage)
	return n
}

func TestLocalPathCostsDirectAndTwoHop(t *testing.T) {
	// Self 0 (weight 1, neighbor 1) with peers 1 (weight 2, neighbor of
	// 0 and 2) and 2 (weight 3, neighbor of 1).
	peers := []peer{
		{id: 1, weight: 2, neighbors: []int{0, 2}},
		{id: 2, weight: 3, neighbors: []int{1}},
	}
	costs := localPathCosts(0, 1, []int{1}, peers, newPathScratch(3))
	if got := costs[0]; got != 3 { // 1 + 2
		t.Errorf("cost to 1 = %g, want 3", got)
	}
	if got := costs[1]; got != 6 { // 1 + 2 + 3
		t.Errorf("cost to 2 = %g, want 6", got)
	}
	if len(costs) != len(peers) {
		t.Errorf("%d costs for %d peers", len(costs), len(peers))
	}
}

func TestLocalPathCostsUnknownNodesIgnored(t *testing.T) {
	// Peer 1 reports neighbor 99, which self knows nothing about: no
	// edge (and no entry) may be created for it, and the scratch is
	// clean for the next call.
	peers := []peer{{id: 1, weight: 2, neighbors: []int{0, 99}}}
	scr := newPathScratch(100)
	costs := localPathCosts(0, 1, []int{1, 99}, peers, scr)
	if len(costs) != 1 || costs[0] != 3 {
		t.Errorf("costs = %v, want [3]", costs)
	}
	for v, l := range scr.local {
		if l != -1 {
			t.Fatalf("scratch maps node %d to %d after the call", v, l)
		}
	}
}

func TestLocalPathCostsPrefersCheapRelay(t *testing.T) {
	// Two routes from 0 to 3: via heavy node 1 (weight 10) or light
	// node 2 (weight 1).
	peers := []peer{
		{id: 1, weight: 10, neighbors: []int{0, 3}},
		{id: 2, weight: 1, neighbors: []int{0, 3}},
		{id: 3, weight: 2, neighbors: []int{1, 2}},
	}
	costs := localPathCosts(0, 1, []int{1, 2}, peers, newPathScratch(4))
	if costs[2] != 4 { // 1 + 1 + 2 via node 2
		t.Errorf("cost to 3 = %g, want 4 via the light relay", costs[2])
	}
}

func TestLocalPathCostsUnreachedPeerIsInfinite(t *testing.T) {
	// Peer 2's only link runs through node 5, which never answered.
	peers := []peer{
		{id: 1, weight: 2, neighbors: []int{0}},
		{id: 2, weight: 3, neighbors: []int{5}},
	}
	costs := localPathCosts(0, 1, []int{1}, peers, newPathScratch(6))
	if costs[0] != 3 || !math.IsInf(costs[1], 1) {
		t.Errorf("costs = %v, want [3 +Inf]", costs)
	}
}

func TestOnFreezeGatedByBid(t *testing.T) {
	n := testNode(3, 0, 1, 0, true, DefaultOptions())
	n.prodCost = 10

	// Redirect toward the producer with an insufficient bid: ignored.
	n.alpha = 5
	n.onFreeze(freeze{Admin: 0})
	if n.state != stateActive {
		t.Fatal("node froze although its bid does not cover the producer cost")
	}

	// Redirect toward an unknown admin: ignored regardless of bid.
	n.alpha = 100
	n.onFreeze(freeze{Admin: 7})
	if n.state != stateActive {
		t.Fatal("node froze onto an admin with unknown cost")
	}

	// Known admin whose cost the bid covers: accepted.
	n.admins = append(n.admins, knownAdmin{id: 7, cost: 50})
	n.onFreeze(freeze{Admin: 7})
	if n.state != stateFrozen || n.assigned != 7 {
		t.Fatalf("state = %v assigned = %d, want frozen onto 7", n.state, n.assigned)
	}

	// Further redirects are no-ops once frozen.
	n.onFreeze(freeze{Admin: 0})
	if n.assigned != 7 {
		t.Error("frozen node re-assigned")
	}
}

func TestMaybeBecomeAdminConditions(t *testing.T) {
	opts := DefaultOptions()
	opts.SpanQuorum = 2
	n := testNode(1, 0, 1, 30 /* fairness */, true, opts)

	// One supporter with enough payment: quorum unmet.
	n.requesters = append(n.requesters, requester{id: 5, paid: 10})
	n.spanners = 1
	n.maybeBecomeAdmin(nil)
	if n.state == stateAdmin {
		t.Fatal("became admin below the SPAN quorum")
	}
	// Two supporters but insufficient total payment vs fairness cost 30.
	n.requesters = append(n.requesters, requester{id: 6, paid: 10})
	n.spanners = 2
	n.maybeBecomeAdmin(nil)
	if n.state == stateAdmin {
		t.Fatal("became admin with unpaid fairness cost")
	}
	// Without storage: never, even with quorum and payment satisfied.
	n.requesters[1].paid = 40
	n.hasStorage = false
	n.maybeBecomeAdmin(nil)
	if n.state == stateAdmin {
		t.Fatal("became admin without storage")
	}
}

func TestZeroSpanPaymentMissesQuorum(t *testing.T) {
	// A SPAN paying nothing makes its sender a requester but no
	// supporter: with a quorum of one, the candidate stays active.
	opts := DefaultOptions()
	opts.SpanQuorum = 1
	n := testNode(1, 0, 1, 0, true, opts)
	n.onRequest(nil, 4, 0, true)
	if n.state != stateActive || n.spanners != 0 || len(n.requesters) != 1 {
		t.Fatalf("state %v, spanners %d, requesters %v after a zero SPAN", n.state, n.spanners, n.requesters)
	}
}

func TestCandidateOrderDeterministic(t *testing.T) {
	// CC responses arrive in any order; the candidate table (the bid
	// order) is by id.
	n := testNode(0, 9, 1, 0, true, DefaultOptions())
	for _, id := range []int{7, 2, 5} {
		n.peers = append(n.peers, peer{id: id, weight: 1, hasStorage: true, neighbors: []int{0}})
	}
	n.conDirty = true
	n.refreshCon([]int{2, 5, 7})
	want := []int{2, 5, 7}
	if len(n.cands) != len(want) {
		t.Fatalf("candidates = %v", n.cands)
	}
	for i := range want {
		if n.cands[i].id != want[i] {
			t.Errorf("candidate %d = %d, want %d", i, n.cands[i].id, want[i])
		}
	}
}

func TestRefreshConFiltersNonCandidates(t *testing.T) {
	n := testNode(0, 9, 1, 0, true, DefaultOptions())
	n.peers = []peer{
		{id: 1, weight: 2, hasStorage: true, neighbors: []int{0}},
		{id: 2, weight: 2, hasStorage: false, neighbors: []int{0}}, // full
		{id: 9, weight: 2, hasStorage: true, neighbors: []int{0}},  // producer
	}
	n.conDirty = true
	n.refreshCon([]int{1, 2, 9})
	if len(n.cands) != 1 || n.cands[0].id != 1 || n.cands[0].cost != 3 {
		t.Errorf("candidates = %v, want only peer 1 at cost 3", n.cands)
	}
}
