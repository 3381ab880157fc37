package online

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
)

func TestNewValidation(t *testing.T) {
	g := graph.NewGrid(3, 3)
	opts := DefaultOptions()
	opts.Capacity = 0
	if _, err := New(g, 0, opts); err == nil {
		t.Error("zero capacity: want error")
	}
	if _, err := New(g, 99, DefaultOptions()); err == nil {
		t.Error("bad producer: want error")
	}
	disc := graph.New(4)
	if err := disc.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := New(disc, 0, DefaultOptions()); err == nil {
		t.Error("disconnected: want error")
	}
}

func TestPublishPlacesAndTracks(t *testing.T) {
	g := graph.NewGrid(6, 6)
	sys, err := New(g, 9, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := sys.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if pub.Chunk != 0 || pub.Time != 1 {
		t.Errorf("first publication = %+v", pub)
	}
	if len(pub.CacheNodes) == 0 {
		t.Error("first chunk not cached anywhere")
	}
	if got := sys.Holders(0); len(got) != len(pub.CacheNodes) {
		t.Errorf("Holders(0) = %v, placement said %v", got, pub.CacheNodes)
	}
	if live := sys.Live(); len(live) != 1 || live[0] != 0 {
		t.Errorf("Live() = %v, want [0]", live)
	}
	if sys.Clock() != 1 {
		t.Errorf("Clock() = %d", sys.Clock())
	}
}

func TestPublishExpiresOldChunks(t *testing.T) {
	g := graph.NewGrid(4, 4)
	opts := DefaultOptions()
	opts.TTL = 2
	sys, err := New(g, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Publish(); err != nil { // chunk 0, expires before t=3
		t.Fatal(err)
	}
	if _, err := sys.Publish(); err != nil { // chunk 1
		t.Fatal(err)
	}
	pub3, err := sys.Publish() // t=3: chunk 0 must be gone
	if err != nil {
		t.Fatal(err)
	}
	if len(pub3.Expired) != 1 || pub3.Expired[0] != 0 {
		t.Errorf("Expired = %v, want [0]", pub3.Expired)
	}
	if got := sys.Holders(0); len(got) != 0 {
		t.Errorf("expired chunk still held by %v", got)
	}
}

func TestOnlineSustainsLongHorizon(t *testing.T) {
	// With TTL = capacity, an endless publication stream must never
	// deadlock: eviction recycles storage and the fairness feedback
	// keeps the long-run load spread.
	g := graph.NewGrid(6, 6)
	opts := DefaultOptions()
	opts.Capacity = 3
	opts.TTL = 3
	sys, err := New(g, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for i := 0; i < 40; i++ {
		pub, err := sys.Publish()
		if err != nil {
			t.Fatalf("publication %d: %v", i, err)
		}
		cached += len(pub.CacheNodes)
	}
	if cached == 0 {
		t.Fatal("nothing was ever cached over the horizon")
	}
	// No node may exceed capacity, and the producer stays empty.
	for i, c := range sys.Counts() {
		if c > opts.Capacity {
			t.Errorf("node %d holds %d > capacity", i, c)
		}
		if i == 9 && c != 0 {
			t.Error("producer cached data")
		}
	}
	// Only chunks within the TTL window can be live.
	if live := sys.Live(); len(live) > opts.TTL {
		t.Errorf("%d live chunks exceed the TTL window %d", len(live), opts.TTL)
	}
	if got := sys.Clock(); got != 40 {
		t.Errorf("clock = %d after 40 publications", got)
	}
}

func TestOnlineLongRunLoadIsFair(t *testing.T) {
	// Cumulative caching assignments over a long run should be spread:
	// account how often each node was chosen across all publications.
	g := graph.NewGrid(6, 6)
	sys, err := New(g, 9, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tally := make([]int, 36)
	for i := 0; i < 30; i++ {
		pub, err := sys.Publish()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range pub.CacheNodes {
			tally[v]++
		}
	}
	if g := metrics.Gini(tally); g >= 0.5 {
		t.Errorf("long-run assignment gini = %.3f, want the fair regime (< 0.5)", g)
	}
}

func TestTTLZeroNeverExpires(t *testing.T) {
	g := graph.NewGrid(4, 4)
	opts := DefaultOptions()
	opts.TTL = 0
	opts.Capacity = 2
	sys, err := New(g, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		pub, err := sys.Publish()
		if err != nil {
			t.Fatalf("publication %d: %v", i, err)
		}
		if len(pub.Expired) != 0 {
			t.Errorf("publication %d expired %v despite TTL 0", i, pub.Expired)
		}
	}
}

func TestSetTopologyMobility(t *testing.T) {
	g := graph.NewGrid(4, 4)
	sys, err := New(g, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Publish(); err != nil {
		t.Fatal(err)
	}
	// Devices move: the mesh becomes a ring of the same 16 nodes.
	if err := sys.SetTopology(graph.NewRing(16)); err != nil {
		t.Fatalf("SetTopology: %v", err)
	}
	pub, err := sys.Publish()
	if err != nil {
		t.Fatalf("publish after move: %v", err)
	}
	if len(pub.CacheNodes) == 0 {
		t.Error("nothing cached after the topology change")
	}
	// Existing chunks carried over.
	if len(sys.Holders(0)) == 0 {
		t.Error("pre-move chunk lost")
	}
	// Node-count mismatch rejected.
	if err := sys.SetTopology(graph.NewGrid(3, 3)); err == nil {
		t.Error("mismatched topology accepted")
	}
	// Disconnected topology rejected by the solver.
	disc := graph.New(16)
	if err := disc.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetTopology(disc); err == nil {
		t.Error("disconnected topology accepted")
	}
}

// TestSetTopologyDropsPathCache is the PathCache growth audit: the memoised
// per-source entries built for one topology must be dropped on a swap, not
// accumulated epoch over epoch. Without the reset a long-running mobile
// system would both leak one cache per movement epoch and serve stale paths.
func TestSetTopologyDropsPathCache(t *testing.T) {
	g := graph.NewGrid(4, 4)
	sys, err := New(g, 5, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Publish(); err != nil {
		t.Fatal(err)
	}
	if got := sys.pc.Cached(); got == 0 {
		t.Fatal("publication built no path-cache entries")
	}
	for epoch := 0; epoch < 3; epoch++ {
		if err := sys.SetTopology(graph.NewRing(16)); err != nil {
			t.Fatalf("epoch %d: SetTopology: %v", epoch, err)
		}
		if got := sys.pc.Cached(); got != 0 {
			t.Fatalf("epoch %d: %d path-cache entries survived the swap", epoch, got)
		}
		if _, err := sys.Publish(); err != nil {
			t.Fatalf("epoch %d: publish: %v", epoch, err)
		}
		// Entries rebuilt lazily for the new topology stay bounded by the
		// node count — the cache cannot grow across swaps.
		if got := sys.pc.Cached(); got == 0 || got > 16 {
			t.Fatalf("epoch %d: Cached() = %d, want within (0,16]", epoch, got)
		}
	}
}
