package faircache_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	faircache "repro"
	"repro/internal/demand"
	"repro/internal/sim"
)

func newAdaptive(t *testing.T, opts *faircache.AdaptiveOptions) *faircache.AdaptiveSystem {
	t.Helper()
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.NewAdaptive(context.Background(), 0, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdaptiveSeedAndReport(t *testing.T) {
	a := newAdaptive(t, &faircache.AdaptiveOptions{Capacity: 3})
	if a.Chunks() != 16 || a.Producer() != 0 {
		t.Fatalf("identity drifted: chunks %d producer %d", a.Chunks(), a.Producer())
	}
	seeded := 0
	for k := 0; k < a.Chunks(); k++ {
		seeded += len(a.Holders(k))
	}
	if seeded == 0 {
		t.Fatal("seeding placed nothing")
	}
	tr, err := sim.NewTrace(sim.TraceSpec{Nodes: 36, Chunks: 16, Seed: 1, Exclude: 0})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]faircache.RequestEvent, 2000)
	for i := range events {
		r := tr.Next()
		events[i] = faircache.RequestEvent{Node: r.Node, Chunk: r.Chunk}
	}
	batch, err := a.Report(events)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Requests != 2000 {
		t.Fatalf("batch.Requests = %d", batch.Requests)
	}
	if batch.LocalHits > batch.CacheHits || batch.CacheHits > batch.Requests {
		t.Fatalf("batch accounting inconsistent: %+v", batch)
	}
	st := a.Stats()
	if st.Requests != 2000 || st.HitRate != float64(st.LocalHits)/2000 {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.Eviction != "cost" {
		t.Fatalf("default eviction = %q, want cost", st.Eviction)
	}
	if _, err := a.Report([]faircache.RequestEvent{{Node: 99, Chunk: 0}}); err == nil {
		t.Fatal("out-of-range node: want error")
	}
}

func TestAdaptiveAdaptImprovesHitRate(t *testing.T) {
	a := newAdaptive(t, &faircache.AdaptiveOptions{Capacity: 3, TopDelta: 6, CopyBudget: 18})
	spec := sim.TraceSpec{Nodes: 36, Chunks: 16, Seed: 7, ZipfS: 1.1, Exclude: 0}
	tr, err := sim.NewTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(n int) faircache.BatchResult {
		events := make([]faircache.RequestEvent, n)
		for i := range events {
			r := tr.Next()
			events[i] = faircache.RequestEvent{Node: r.Node, Chunk: r.Chunk}
		}
		b, err := a.Report(events)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := feed(10000)
	for i := 0; i < 4; i++ {
		if _, err := a.Adapt(context.Background()); err != nil {
			t.Fatal(err)
		}
		feed(5000)
	}
	if _, err := a.Adapt(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := feed(10000)
	rBefore := float64(before.LocalHits) / float64(before.Requests)
	rAfter := float64(after.LocalHits) / float64(after.Requests)
	if rAfter <= rBefore {
		t.Fatalf("adaptation did not improve hit rate: %.4f -> %.4f", rBefore, rAfter)
	}
	st := a.Stats()
	if st.Adaptations != 5 {
		t.Fatalf("Adaptations = %d, want 5", st.Adaptations)
	}
	if st.Gini < 0 || st.Gini > 1 {
		t.Fatalf("Gini = %v out of range", st.Gini)
	}
}

func TestAdaptiveEvictionSelection(t *testing.T) {
	for _, name := range []string{"lru", "lfu", "cost"} {
		a := newAdaptive(t, &faircache.AdaptiveOptions{Capacity: 2, Eviction: name})
		if got := a.Stats().Eviction; got != name {
			t.Fatalf("eviction = %q, want %q", got, name)
		}
	}
	topo, err := faircache.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewAdaptive(context.Background(), 0, 4, &faircache.AdaptiveOptions{Eviction: "fifo"}); !errors.Is(err, faircache.ErrBadArgument) {
		t.Fatalf("unknown strategy: err = %v, want ErrBadArgument", err)
	}
	if _, err := s.NewAdaptive(context.Background(), 99, 4, nil); !errors.Is(err, faircache.ErrBadArgument) {
		t.Fatalf("bad producer: err = %v, want ErrBadArgument", err)
	}
	if _, err := s.NewAdaptive(context.Background(), 0, 4, &faircache.AdaptiveOptions{Capacity: -1}); !errors.Is(err, faircache.ErrBadArgument) {
		t.Fatalf("negative capacity: err = %v, want ErrBadArgument", err)
	}
	for _, o := range []faircache.AdaptiveOptions{{TopDelta: -1}, {CopyBudget: -1}, {HitRadius: -1}} {
		if _, err := s.NewAdaptive(context.Background(), 0, 4, &o); !errors.Is(err, faircache.ErrBadArgument) {
			t.Fatalf("options %+v: err = %v, want ErrBadArgument", o, err)
		}
	}
	// The engine's (chunk, node) cell budget bounds the chunk count: 2^50
	// chunks cannot even be allocated, and one chunk over the budget on
	// these 16 nodes is refused the same way.
	for _, chunks := range []int{1 << 50, demand.MaxCells/16 + 1} {
		if _, err := s.NewAdaptive(context.Background(), 0, chunks, nil); !errors.Is(err, faircache.ErrBadArgument) {
			t.Fatalf("%d chunks: err = %v, want ErrBadArgument", chunks, err)
		}
	}
}

// TestAdaptiveReportBadEventIsBadArgument: an out-of-range event is the
// caller's mistake, so Report marks it ErrBadArgument (a daemon 400) the
// way every other public entry point does and serves none of its batch,
// while a cancelled seed stays a context error (a 499/504), not a bad
// argument.
func TestAdaptiveReportBadEventIsBadArgument(t *testing.T) {
	a := newAdaptive(t, &faircache.AdaptiveOptions{Capacity: 3})
	before := a.Stats()
	for _, batch := range [][]faircache.RequestEvent{
		{{Node: 99, Chunk: 0}}, // node out of range
		{{Node: 1, Chunk: 16}}, // chunk out of range
		{{Node: 1, Chunk: 0}, {Node: 2, Chunk: 3}, {Node: 99, Chunk: 0}}, // good events first
	} {
		_, err := a.Report(batch)
		if !errors.Is(err, faircache.ErrBadArgument) || !strings.Contains(err.Error(), fmt.Sprintf("event %d", len(batch)-1)) {
			t.Errorf("Report(%+v): err = %v, want ErrBadArgument naming its last event", batch, err)
		}
	}
	if after := a.Stats(); after != before {
		t.Fatalf("stats after rejected batches = %+v, want %+v", after, before)
	}
	topo, err := faircache.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.NewAdaptive(ctx, 0, 4, nil)
	if !errors.Is(err, context.Canceled) || errors.Is(err, faircache.ErrBadArgument) {
		t.Fatalf("cancelled seed: err = %v, want context.Canceled and not ErrBadArgument", err)
	}
}

func TestAdaptiveWarmForksBaseModel(t *testing.T) {
	topo, err := faircache.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.NewAdaptive(context.Background(), 0, 8, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.ColdBuilds != 1 {
		t.Fatalf("ColdBuilds = %d, want 1 (adaptive systems should warm-fork)", st.ColdBuilds)
	}
	if st.WarmSolves < 2 {
		t.Fatalf("WarmSolves = %d, want >= 2", st.WarmSolves)
	}
}
