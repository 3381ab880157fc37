package online

import (
	"testing"

	"repro/internal/graph"
)

// TestTTLOneEvictsAtNextPublication pins the TTL clock semantics: a chunk
// published at time t with TTL=1 is gone before the publication at t+1.
func TestTTLOneEvictsAtNextPublication(t *testing.T) {
	g := graph.NewGrid(4, 4)
	opts := DefaultOptions()
	opts.TTL = 1
	sys, err := New(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.CacheNodes) == 0 {
		t.Fatal("first publication placed nothing")
	}
	second, err := sys.Publish()
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Expired) != 1 || second.Expired[0] != first.Chunk {
		t.Fatalf("second publication expired %v, want [%d]", second.Expired, first.Chunk)
	}
	if hs := sys.Holders(first.Chunk); len(hs) != 0 {
		t.Fatalf("chunk %d still held by %v after TTL=1 expiry", first.Chunk, hs)
	}
}

// TestTTLNeverExpires pins the TTL<=0 encoding ("never expire", the
// public ChunkTTL=-1 mapping): no chunk is ever evicted, storage only
// grows until the network is full.
func TestTTLNeverExpires(t *testing.T) {
	g := graph.NewGrid(4, 4)
	opts := DefaultOptions()
	opts.TTL = 0
	opts.Capacity = 2
	sys, err := New(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	prev, placed := 0, 0
	for i := 0; i < 12; i++ {
		pub, err := sys.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if len(pub.Expired) != 0 {
			t.Fatalf("publication %d expired %v under TTL<=0", i, pub.Expired)
		}
		if len(pub.CacheNodes) > 0 {
			placed++
		}
		total := 0
		for _, c := range sys.Counts() {
			total += c
		}
		if total < prev {
			t.Fatalf("publication %d: stored copies shrank %d -> %d without eviction", i, prev, total)
		}
		prev = total
	}
	// Every chunk that got a copy keeps it forever; chunks arriving after
	// the network filled were never placed at all.
	if len(sys.Live()) != placed {
		t.Fatalf("live %d != placed %d under never-expire", len(sys.Live()), placed)
	}
}
