package faircache

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
)

func mustGrid(t *testing.T, rows, cols int) *Topology {
	t.Helper()
	topo, err := Grid(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mustOnline(t *testing.T, topo *Topology, producer int, opts *Options) *OnlineSystem {
	t.Helper()
	sys, err := NewOnline(topo, producer, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustPublish(t *testing.T, sys *OnlineSystem) *Publication {
	t.Helper()
	pub, err := sys.Publish()
	if err != nil {
		t.Fatalf("publish at clock %d: %v", sys.Clock(), err)
	}
	return pub
}

func uniform(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// disconnected returns an n-node topology with a single link, which no
// public constructor can build.
func disconnected(t *testing.T, n int) *Topology {
	t.Helper()
	g := graph.New(n)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	return &Topology{g: g}
}

// TestNewOnlineValidatesCapacity: a negative capacity is rejected with
// the library's typed argument error instead of being silently defaulted,
// and zero selects the paper's default, so the engine never runs without
// storage.
func TestNewOnlineValidatesCapacity(t *testing.T) {
	topo := mustGrid(t, 3, 3)
	if _, err := NewOnline(topo, 0, &Options{Capacity: -1}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("NewOnline(capacity=-1) error = %v, want ErrBadArgument", err)
	}
	sys := mustOnline(t, topo, 0, &Options{Capacity: 0})
	for i := 0; i < topo.NumNodes(); i++ {
		if got := sys.model.State().Capacity(i); got != 5 {
			t.Fatalf("capacity 0: node %d got capacity %d, want the default 5", i, got)
		}
	}
}

// TestNewOnlineValidation: a producer outside the topology, a nil
// topology or one the solver cannot span is rejected with the library's
// typed argument error before any state is built, and SetTopology(nil)
// is refused the same way.
func TestNewOnlineValidation(t *testing.T) {
	topo := mustGrid(t, 3, 3)
	for _, producer := range []int{-1, 99} {
		if _, err := NewOnline(topo, producer, nil); !errors.Is(err, ErrBadArgument) {
			t.Errorf("producer %d: err = %v, want ErrBadArgument", producer, err)
		}
	}
	if _, err := NewOnline(disconnected(t, 4), 0, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("disconnected topology: err = %v, want ErrBadArgument", err)
	}
	if _, err := NewOnline(nil, 0, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("nil topology: err = %v, want ErrBadArgument", err)
	}
	if err := mustOnline(t, topo, 0, nil).SetTopology(nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("SetTopology(nil): err = %v, want ErrBadArgument", err)
	}
	// A 1-node topology is refused when it is built.
	if _, err := FromLinks(1, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("1-node topology: err = %v, want ErrBadArgument", err)
	}
}

func TestOnlineSystemAPI(t *testing.T) {
	topo := mustGrid(t, 6, 6)
	sys := mustOnline(t, topo, 9, &Options{Capacity: 3, ChunkTTL: 3})
	var sawExpiry bool
	for i := 0; i < 12; i++ {
		pub := mustPublish(t, sys)
		if pub.Time != i+1 || pub.Chunk != i {
			t.Errorf("publication %d = %+v", i, pub)
		}
		if len(pub.Expired) > 0 {
			sawExpiry = true
		}
	}
	if !sawExpiry {
		t.Error("no chunk ever expired over 12 publications with TTL 3")
	}
	if sys.Clock() != 12 {
		t.Errorf("Clock() = %d", sys.Clock())
	}
	if len(sys.Live()) > 3 {
		t.Errorf("live chunks %v exceed the TTL window", sys.Live())
	}
	for i, c := range sys.Counts() {
		if c > 3 {
			t.Errorf("node %d holds %d > capacity", i, c)
		}
	}
	if g := sys.Gini(); g < 0 || g >= 1 {
		t.Errorf("Gini() = %g out of range", g)
	}
	if _, err := NewOnline(topo, 99, nil); !errors.Is(err, ErrBadArgument) {
		t.Errorf("bad producer: err = %v, want ErrBadArgument", err)
	}
}

func TestOnlinePublishPlacesAndTracks(t *testing.T) {
	sys := mustOnline(t, mustGrid(t, 6, 6), 9, nil)
	pub := mustPublish(t, sys)
	if pub.Chunk != 0 || pub.Time != 1 {
		t.Errorf("first publication = %+v", pub)
	}
	if len(pub.CacheNodes) == 0 {
		t.Error("first chunk not cached anywhere")
	}
	if got := sys.Holders(0); !reflect.DeepEqual(got, pub.CacheNodes) {
		t.Errorf("Holders(0) = %v, placement said %v", got, pub.CacheNodes)
	}
	if live := sys.Live(); !reflect.DeepEqual(live, []int{0}) {
		t.Errorf("Live() = %v, want [0]", live)
	}
	if sys.Clock() != 1 {
		t.Errorf("Clock() = %d", sys.Clock())
	}
}

func TestOnlinePublishExpiresOldChunks(t *testing.T) {
	sys := mustOnline(t, mustGrid(t, 4, 4), 5, &Options{ChunkTTL: 2})
	mustPublish(t, sys) // chunk 0, expires before t=3
	mustPublish(t, sys) // chunk 1
	pub3 := mustPublish(t, sys)
	if !reflect.DeepEqual(pub3.Expired, []int{0}) {
		t.Errorf("Expired = %v, want [0]", pub3.Expired)
	}
	if got := sys.Holders(0); len(got) != 0 {
		t.Errorf("expired chunk still held by %v", got)
	}
}

// TestOnlineSustainsLongHorizon: with TTL = capacity, an endless
// publication stream must never deadlock: eviction recycles storage and
// the fairness feedback keeps the long-run load spread.
func TestOnlineSustainsLongHorizon(t *testing.T) {
	const capacity, ttl = 3, 3
	sys := mustOnline(t, mustGrid(t, 6, 6), 9, &Options{Capacity: capacity, ChunkTTL: ttl})
	cached := 0
	for i := 0; i < 40; i++ {
		cached += len(mustPublish(t, sys).CacheNodes)
	}
	if cached == 0 {
		t.Fatal("nothing was ever cached over the horizon")
	}
	// No node may exceed capacity, and the producer stays empty.
	for i, c := range sys.Counts() {
		if c > capacity {
			t.Errorf("node %d holds %d > capacity", i, c)
		}
		if i == 9 && c != 0 {
			t.Error("producer cached data")
		}
	}
	// Only chunks within the TTL window can be live.
	if live := sys.Live(); len(live) > ttl {
		t.Errorf("%d live chunks exceed the TTL window %d", len(live), ttl)
	}
	if got := sys.Clock(); got != 40 {
		t.Errorf("clock = %d after 40 publications", got)
	}
}

// TestOnlineLongRunLoadIsFair: cumulative caching assignments over a long
// run should be spread — account how often each node was chosen across
// all publications.
func TestOnlineLongRunLoadIsFair(t *testing.T) {
	sys := mustOnline(t, mustGrid(t, 6, 6), 9, nil)
	tally := make([]int, 36)
	for i := 0; i < 30; i++ {
		for _, v := range mustPublish(t, sys).CacheNodes {
			tally[v]++
		}
	}
	if g := metrics.Gini(tally); g >= 0.5 {
		t.Errorf("long-run assignment gini = %.3f, want the fair regime (< 0.5)", g)
	}
}

// TestOnlineTTLNeverExpire: ChunkTTL = -1 means "never expire" — no
// publication ever evicts, stored copies only grow until the network is
// full, and every chunk that got a copy keeps it forever (chunks arriving
// after the network filled are never placed at all).
func TestOnlineTTLNeverExpire(t *testing.T) {
	for _, tc := range []struct {
		name               string
		rows, cols         int
		producer, capacity int
		pubs               int
		allPlaced          bool
	}{
		{"6x6", 6, 6, 9, 3, 6, true},
		{"4x4-producer5", 4, 4, 5, 2, 6, false},
		{"4x4-fills", 4, 4, 0, 2, 12, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := mustOnline(t, mustGrid(t, tc.rows, tc.cols), tc.producer, &Options{Capacity: tc.capacity, ChunkTTL: -1})
			prev, placed := 0, 0
			for i := 0; i < tc.pubs; i++ {
				pub := mustPublish(t, sys)
				if len(pub.Expired) != 0 {
					t.Fatalf("publish %d evicted %v with never-expire TTL", i, pub.Expired)
				}
				if len(pub.CacheNodes) > 0 {
					placed++
				} else if tc.allPlaced {
					t.Fatalf("publish %d placed no copies", i)
				}
				total := 0
				for _, c := range sys.Counts() {
					total += c
				}
				if total < prev {
					t.Fatalf("publish %d: stored copies shrank %d -> %d without eviction", i, prev, total)
				}
				prev = total
			}
			live := sys.Live()
			if len(live) != placed {
				t.Fatalf("Live() = %v, want the %d placed chunks", live, placed)
			}
			for _, chunk := range live {
				if len(sys.Holders(chunk)) == 0 {
					t.Errorf("live chunk %d has no holders", chunk)
				}
			}
			snap := sys.Snapshot()
			if snap.Clock != tc.pubs || snap.Published != tc.pubs || len(snap.Holders) != placed {
				t.Fatalf("snapshot %+v, want clock=published=%d with %d live chunks", snap, tc.pubs, placed)
			}
		})
	}
}

// TestOnlineTTLImmediateExpiry: ChunkTTL = 1 means a chunk published at
// time t is evicted before the publication at t+1 — exactly one chunk is
// ever live.
func TestOnlineTTLImmediateExpiry(t *testing.T) {
	for _, tc := range []struct {
		name               string
		rows, cols         int
		producer, capacity int
	}{
		{"3x3", 3, 3, 4, 3},
		{"4x4", 4, 4, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := mustOnline(t, mustGrid(t, tc.rows, tc.cols), tc.producer, &Options{Capacity: tc.capacity, ChunkTTL: 1})
			for i := 0; i < 4; i++ {
				pub := mustPublish(t, sys)
				if len(pub.CacheNodes) == 0 {
					t.Fatalf("publish %d placed nothing", i)
				}
				if i == 0 {
					if len(pub.Expired) != 0 {
						t.Fatalf("first publication expired %v", pub.Expired)
					}
				} else {
					if !reflect.DeepEqual(pub.Expired, []int{i - 1}) {
						t.Fatalf("publish %d expired %v, want [%d]", i, pub.Expired, i-1)
					}
					if hs := sys.Holders(i - 1); len(hs) != 0 {
						t.Fatalf("chunk %d still held by %v after TTL=1 expiry", i-1, hs)
					}
				}
				if live := sys.Live(); !reflect.DeepEqual(live, []int{i}) {
					t.Fatalf("after publish %d, Live() = %v, want [%d]", i, live, i)
				}
			}
			// Expired chunks hold nothing; the latest does.
			if n := len(sys.Holders(0)); n != 0 {
				t.Errorf("expired chunk 0 still has %d holders", n)
			}
			if len(sys.Holders(3)) == 0 {
				t.Error("latest chunk has no holders")
			}
		})
	}
}

// TestOnlineSetTopologyMobility moves the devices mid-stream: the live
// cost model is exact right after the move and after a further publish,
// cached chunks and their expiry clocks carry over, and a topology with
// the wrong node count or without connectivity is rejected and leaves the
// system unchanged.
func TestOnlineSetTopologyMobility(t *testing.T) {
	ctx := context.Background()
	grid := mustGrid(t, 4, 4)
	ring, err := Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	start := func() (*OnlineSystem, *Publication) {
		sys := mustOnline(t, grid, 5, &Options{ChunkTTL: 2})
		first := mustPublish(t, sys) // chunk 0, expires before t=3
		if err := sys.SetTopology(ring); err != nil {
			t.Fatalf("SetTopology: %v", err)
		}
		return sys, first
	}
	sys, first := start()
	if err := sys.model.Verify(ctx, nil); err != nil {
		t.Fatalf("model after the move: %v", err)
	}
	if got := sys.Holders(0); len(got) == 0 || !reflect.DeepEqual(got, first.CacheNodes) {
		t.Fatalf("pre-move chunk held by %v, want %v", got, first.CacheNodes)
	}
	pub := mustPublish(t, sys)
	if len(pub.CacheNodes) == 0 {
		t.Error("nothing cached after the topology change")
	}
	if len(pub.Expired) != 0 {
		t.Errorf("publish after the move expired %v", pub.Expired)
	}
	if err := sys.model.Verify(ctx, nil); err != nil {
		t.Fatalf("model after a publish on the new topology: %v", err)
	}
	// Chunk 0's expiry clock carried over the move.
	if pub := mustPublish(t, sys); !reflect.DeepEqual(pub.Expired, []int{0}) {
		t.Fatalf("publish at t=3 expired %v, want [0]", pub.Expired)
	}

	before := sys.Snapshot()
	model := sys.model
	if err := sys.SetTopology(mustGrid(t, 3, 3)); !errors.Is(err, ErrBadArgument) {
		t.Errorf("node-count mismatch: err = %v, want ErrBadArgument", err)
	}
	if err := sys.SetTopology(disconnected(t, 16)); !errors.Is(err, ErrBadArgument) {
		t.Errorf("disconnected topology: err = %v, want ErrBadArgument", err)
	}
	if sys.model != model || !reflect.DeepEqual(sys.Snapshot(), before) {
		t.Fatal("a rejected move changed the system")
	}
	// A twin that never saw the rejected moves publishes the same chunk.
	twin, _ := start()
	mustPublish(t, twin)
	mustPublish(t, twin)
	if got, want := mustPublish(t, sys), mustPublish(t, twin); !reflect.DeepEqual(got, want) {
		t.Fatalf("after rejected moves published %+v, twin published %+v", got, want)
	}
}

// TestOnlineSetTopologyDropsPathCache is the path-cache growth audit:
// each move binds a fresh shortest-path memo for the new connectivity
// instead of keeping entries for a graph that no longer exists, so a
// long-running mobile system neither accumulates one cache per movement
// epoch nor serves stale paths, and the live memo never holds more than
// one entry per node.
func TestOnlineSetTopologyDropsPathCache(t *testing.T) {
	grid := mustGrid(t, 4, 4)
	ring, err := Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	sys := mustOnline(t, grid, 5, nil)
	mustPublish(t, sys)
	if got := sys.model.PathCache().Cached(); got == 0 {
		t.Fatal("publication built no path-cache entries")
	}
	for epoch := 0; epoch < 4; epoch++ {
		old := sys.model.PathCache()
		to := ring
		if epoch%2 == 1 {
			to = grid
		}
		if err := sys.SetTopology(to); err != nil {
			t.Fatalf("epoch %d: SetTopology: %v", epoch, err)
		}
		pc := sys.model.PathCache()
		if pc == old {
			t.Fatalf("epoch %d: the move kept the old path cache", epoch)
		}
		if got := pc.Cached(); got != 0 {
			t.Fatalf("epoch %d: %d path-cache entries survived the move", epoch, got)
		}
		mustPublish(t, sys)
		if got := pc.Cached(); got == 0 || got > 16 {
			t.Fatalf("epoch %d: Cached() = %d, want within (0,16]", epoch, got)
		}
	}
}

// TestOnlineHonoursCapacities: NewOnline builds its cache state with the
// same helper as Solve, so per-node Capacities bind every publication. A
// node given capacity 0 never holds a copy, online or in a batch solve.
func TestOnlineHonoursCapacities(t *testing.T) {
	topo := mustGrid(t, 4, 4)
	solver, err := NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < topo.NumNodes(); node++ {
		if node == 5 {
			continue
		}
		caps := uniform(topo.NumNodes(), 3)
		caps[node] = 0
		opts := &Options{Capacity: 3, Capacities: caps}
		sys := mustOnline(t, topo, 5, opts)
		for i := 1; i <= 20; i++ {
			mustPublish(t, sys)
			if c := sys.Counts()[node]; c != 0 {
				t.Fatalf("node %d (capacity 0) holds %d chunks after publication %d", node, c, i)
			}
		}
		res, err := solver.Solve(context.Background(), Request{Producer: 5, Chunks: 5, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if c := res.Counts[node]; c != 0 {
			t.Fatalf("Solve: node %d (capacity 0) holds %d chunks", node, c)
		}
	}
}

// TestOnlineMatchesBatchSolve: with chunks that never expire, Q online
// publications run exactly Solve's Q chunk iterations, so the caching
// sets must match under every placement option the two share.
// ImproveSteiner applies to neither (a global solve and a Publication
// read no tree), so its case pins that the option moves no copy.
func TestOnlineMatchesBatchSolve(t *testing.T) {
	topo := mustGrid(t, 5, 5)
	solver, err := NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	caps := uniform(topo.NumNodes(), 3)
	caps[7], caps[13], caps[17] = 0, 1, 6
	battery := make([]float64, topo.NumNodes())
	for i := range battery {
		battery[i] = float64(i%4) / 3 // every fourth node is dead
	}
	const chunks = 8
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"defaults", Options{}},
		{"capacities", Options{Capacities: caps}},
		{"battery", Options{BatteryLevels: battery, BatteryWeight: 2}},
		{"greedy", Options{GreedyConFL: true}},
		{"improve-steiner", Options{ImproveSteiner: true, FairnessWeight: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			res, err := solver.Solve(context.Background(), Request{Producer: 12, Chunks: chunks, Options: &opts})
			if err != nil {
				t.Fatal(err)
			}
			opts.ChunkTTL = -1
			sys := mustOnline(t, topo, 12, &opts)
			for c := 0; c < chunks; c++ {
				if pub := mustPublish(t, sys); !reflect.DeepEqual(pub.CacheNodes, res.Holders[c]) {
					t.Fatalf("chunk %d: online cached on %v, Solve on %v", c, pub.CacheNodes, res.Holders[c])
				}
			}
			if !reflect.DeepEqual(sys.Counts(), res.Counts) {
				t.Fatalf("online counts %v, Solve counts %v", sys.Counts(), res.Counts)
			}
		})
	}
}

func TestOnlinePublishCtxCancelled(t *testing.T) {
	sys := mustOnline(t, mustGrid(t, 4, 4), 5, &Options{Capacity: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.PublishCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("PublishCtx: err = %v, want context.Canceled", err)
	}
	if sys.Clock() != 0 {
		t.Fatalf("pre-cancelled publish advanced the clock to %d", sys.Clock())
	}
	if _, err := sys.PublishCtx(context.Background()); err != nil {
		t.Fatalf("publish after cancelled attempt: %v", err)
	}
}

// TestOnlinePublishCtxCancelledMidPlacement pins what a publication
// cancelled inside its placement leaves behind: PublishCtx returns
// context.Canceled, the clock tick and the chunk id are consumed, the
// tick's TTL eviction stands, and the abandoned id never becomes visible
// — not live, not held, not in a snapshot, never reported as expired.
func TestOnlinePublishCtxCancelledMidPlacement(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sys := mustOnline(t, mustGrid(t, 4, 4), 5, &Options{ChunkTTL: 2, ChunkStarted: func(chunk int) {
		if chunk == 3 {
			cancel()
		}
	}})
	for i := 0; i < 3; i++ {
		if _, err := sys.PublishCtx(ctx); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if len(sys.Holders(1)) == 0 {
		t.Fatal("chunk 1 has no holders, so its eviction below would go unseen")
	}
	if _, err := sys.PublishCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("PublishCtx cancelled at chunk 3: err = %v, want context.Canceled", err)
	}
	if got := sys.Clock(); got != 4 {
		t.Fatalf("Clock() = %d after the cancelled publish, want 4", got)
	}
	// Chunk 1, published at t=2 with TTL 2, expires at the cancelled tick.
	if hs := sys.Holders(1); len(hs) != 0 {
		t.Fatalf("chunk 1 still held by %v after the cancelled tick", hs)
	}
	if live := sys.Live(); !reflect.DeepEqual(live, []int{2}) {
		t.Fatalf("Live() = %v after the cancelled publish, want [2]", live)
	}
	if err := sys.model.Verify(context.Background(), nil); err != nil {
		t.Fatalf("model after the cancelled publish: %v", err)
	}
	unseen := func(when string) {
		t.Helper()
		snap := sys.Snapshot()
		if _, ok := snap.Holders[3]; ok || slices.Contains(sys.Live(), 3) || len(sys.Holders(3)) != 0 {
			t.Fatalf("%s: abandoned chunk 3 is visible (Live %v, Holders(3) %v, snapshot %v)", when, sys.Live(), sys.Holders(3), snap.Holders)
		}
		if snap.Published != sys.Clock() {
			t.Fatalf("%s: snapshot published %d, clock %d", when, snap.Published, sys.Clock())
		}
	}
	unseen("after the cancelled publish")
	for i := 0; i < 6; i++ {
		pub, err := sys.PublishCtx(context.Background())
		if err != nil {
			t.Fatalf("publish after the cancelled one: %v", err)
		}
		if pub.Chunk != 4+i || pub.Time != 5+i {
			t.Fatalf("publication after the cancelled one = %+v, want chunk %d at time %d", pub, 4+i, 5+i)
		}
		if slices.Contains(pub.Expired, 3) {
			t.Fatalf("publication %d reported the abandoned chunk 3 as expired: %v", pub.Time, pub.Expired)
		}
		unseen("after a later publish")
	}
}
