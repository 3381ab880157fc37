package faircache_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	faircache "repro"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/online_golden.txt from the current engine")

const onlineGoldenPath = "testdata/online_golden.txt"

// goldenStream is one recorded online run: a topology, its producer and
// capacity, and the topologies the devices move to (SetTopology), keyed by
// the publication after which they move.
type goldenStream struct {
	name     string
	topo     *faircache.Topology
	producer int
	capacity int
	moves    map[int]*faircache.Topology
}

func goldenStreams(t *testing.T) []goldenStream {
	t.Helper()
	must := func(topo *faircache.Topology, err error) *faircache.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	grid6 := must(faircache.Grid(6, 6))
	grid12 := must(faircache.Grid(12, 12))
	random := must(faircache.Random(40, 7))
	grid4 := must(faircache.Grid(4, 4))
	ring16 := must(faircache.Ring(16))
	return []goldenStream{
		{name: "grid6x6", topo: grid6, producer: 9},
		{name: "grid12x12", topo: grid12, producer: grid12.CentralNode()},
		{name: "random40s7", topo: random, producer: random.CentralNode()},
		{name: "grid4x4-move", topo: grid4, producer: 5, capacity: 3, moves: map[int]*faircache.Topology{12: ring16, 30: grid4}},
	}
}

// renderOnlineGolden runs every stream at every TTL and renders one line
// per publication (time, chunk, caching set, expired ids) plus, per run,
// the SHA-256 of the JSON of every Publication, Snapshot() and Live()
// taken after each publish.
func renderOnlineGolden(t *testing.T) string {
	const publications = 48
	var b strings.Builder
	for _, s := range goldenStreams(t) {
		for _, ttl := range []int{0, 1, -1, 32, 5} {
			sys, err := faircache.NewOnline(s.topo, s.producer, &faircache.Options{Capacity: s.capacity, ChunkTTL: ttl})
			if err != nil {
				t.Fatalf("%s ttl=%d: %v", s.name, ttl, err)
			}
			fmt.Fprintf(&b, "== %s ttl=%d\n", s.name, ttl)
			h := sha256.New()
			enc := json.NewEncoder(h)
			for i := 1; i <= publications; i++ {
				pub, err := sys.Publish()
				if err != nil {
					t.Fatalf("%s ttl=%d publish %d: %v", s.name, ttl, i, err)
				}
				fmt.Fprintf(&b, "%d %d %v %v\n", pub.Time, pub.Chunk, pub.CacheNodes, pub.Expired)
				for _, v := range []any{pub, sys.Snapshot(), sys.Live()} {
					if err := enc.Encode(v); err != nil {
						t.Fatal(err)
					}
				}
				if to, ok := s.moves[i]; ok {
					if err := sys.SetTopology(to); err != nil {
						t.Fatalf("%s ttl=%d move after %d: %v", s.name, ttl, i, err)
					}
					fmt.Fprintf(&b, "move %d nodes, %d links\n", to.NumNodes(), to.NumLinks())
				}
			}
			fmt.Fprintf(&b, "state %x\n", h.Sum(nil))
		}
	}
	return b.String()
}

// TestOnlinePublicationGolden pins the online publication stream: every
// caching set, expiry and post-publish snapshot on 6×6, 12×12, a random
// 40-node topology and a 4×4 grid that moves to a ring and back, at the
// default TTL, 1, never (-1), 32 and 5. A placement drift fails here.
// The daemon restores its online systems from their logged snapshots
// without re-publishing, so a drift does not fail a restart; this file
// is what pins the online placements across versions.
// Rewrite the file with -update only for an intended placement change.
func TestOnlinePublicationGolden(t *testing.T) {
	got := renderOnlineGolden(t)
	if *updateGolden {
		if err := os.WriteFile(onlineGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(onlineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", onlineGoldenPath, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", onlineGoldenPath, len(gotLines), len(wantLines))
}
