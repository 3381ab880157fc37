package dist

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultOptions()); !errors.Is(err, ErrBadTopology) {
		t.Errorf("nil graph: err = %v", err)
	}
	disc := graph.New(4)
	if err := disc.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := New(disc, DefaultOptions()); !errors.Is(err, ErrBadTopology) {
		t.Errorf("disconnected: err = %v", err)
	}
	opts := DefaultOptions()
	opts.FairnessWeight = -1
	if _, err := New(graph.NewGrid(2, 2), opts); err == nil {
		t.Error("negative fairness weight: want error")
	}
}

func TestPlaceChunksValidation(t *testing.T) {
	pr, err := New(graph.NewGrid(3, 3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(9, 5)
	if _, err := pr.PlaceChunksCtx(context.Background(), -1, 1, st); !errors.Is(err, ErrBadProducer) {
		t.Errorf("bad producer: err = %v", err)
	}
	if _, err := pr.PlaceChunksCtx(context.Background(), 0, 0, st); !errors.Is(err, ErrBadChunks) {
		t.Errorf("zero chunks: err = %v", err)
	}
	if _, err := pr.PlaceChunksCtx(context.Background(), 0, 1, cache.NewState(4, 5)); !errors.Is(err, ErrBadState) {
		t.Errorf("state mismatch: err = %v", err)
	}
}

func TestProtocolTerminatesAndAssignsEveryone(t *testing.T) {
	g := graph.NewGrid(6, 6)
	pr, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(36, 5)
	p, err := pr.PlaceChunksCtx(context.Background(), 9, 1, st)
	if err != nil {
		t.Fatal(err)
	}
	run := p.Chunks[0]
	for j, a := range run.Assign {
		if a < 0 || a >= 36 {
			t.Errorf("node %d unassigned (got %d)", j, a)
		}
	}
	if run.Rounds <= 0 {
		t.Error("Rounds = 0")
	}
	if run.Messages[KindNPI] == 0 {
		t.Error("no NPI messages recorded")
	}
}

func TestProtocolElectsAdminsOnGrid(t *testing.T) {
	g := graph.NewGrid(6, 6)
	pr, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(36, 5)
	p, err := pr.PlaceChunksCtx(context.Background(), 9, 1, st)
	if err != nil {
		t.Fatal(err)
	}
	admins := p.Chunks[0].CacheNodes
	if len(admins) == 0 {
		t.Fatal("no ADMIN elected on a 6x6 grid")
	}
	for _, a := range admins {
		if a == 9 {
			t.Error("producer became an ADMIN")
		}
		if !st.Has(a, 0) {
			t.Errorf("admin %d does not hold the chunk", a)
		}
	}
}

func TestProtocolSpreadsLoadAcrossChunks(t *testing.T) {
	g := graph.NewGrid(6, 6)
	pr, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(36, 5)
	p, err := pr.PlaceChunksCtx(context.Background(), 9, 5, st)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	maxSet := 0
	for _, c := range p.Chunks {
		if len(c.CacheNodes) > maxSet {
			maxSet = len(c.CacheNodes)
		}
		for _, v := range c.CacheNodes {
			distinct[v] = true
		}
	}
	if len(distinct) <= maxSet {
		t.Errorf("distinct admins %d <= max per-chunk %d: no load spreading", len(distinct), maxSet)
	}
	for i := 0; i < 36; i++ {
		if st.Stored(i) > st.Capacity(i) {
			t.Errorf("node %d over capacity", i)
		}
	}
	if st.Stored(9) != 0 {
		t.Error("producer cached data")
	}
}

func TestProtocolRespectsCapacityUnderPressure(t *testing.T) {
	g := graph.NewGrid(4, 4)
	pr, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(16, 1)
	p, err := pr.PlaceChunksCtx(context.Background(), 0, 4, st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if st.Stored(i) > 1 {
			t.Errorf("node %d over capacity 1", i)
		}
	}
	if len(p.Chunks) != 4 {
		t.Errorf("chunks run = %d, want 4", len(p.Chunks))
	}
}

func TestProtocolMessageComplexityBound(t *testing.T) {
	// Sec. IV-D: total messages are O(QN + N²). Verify a generous
	// concrete bound c·(QN + N²) with the per-hop flood constant folded
	// into c on grids of growing size.
	for _, size := range []int{4, 6, 8} {
		g := graph.NewGrid(size, size)
		n := size * size
		pr, err := New(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		st := cache.NewState(n, 5)
		const q = 3
		p, err := pr.PlaceChunksCtx(context.Background(), 0, q, st)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		total := p.TotalMessages()
		// NPI/BADMIN floods are O(E)=O(N) per event on grids; CC/CCR are
		// O(N·deg²); TIGHT/SPAN O(N²) worst. Allow constant 40.
		bound := 40 * (q*n + n*n)
		if total > bound {
			t.Errorf("size %d: %d messages exceeds bound %d", size, total, bound)
		}
		for _, kind := range []string{KindNPI, KindCC, KindCCResp} {
			if p.MessagesByKind()[kind] == 0 {
				t.Errorf("size %d: no %s messages", size, kind)
			}
		}
	}
}

func TestProtocolHopLimitShape(t *testing.T) {
	// Fig. 3: a 1-hop information scope yields higher contention cost and
	// a less fair distribution than 2 hops, while k >= 2 is flat.
	g := graph.NewGrid(6, 6)
	run := func(k int) (evalTotal, gini float64) {
		opts := DefaultOptions()
		opts.K = k
		pr, err := New(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := cache.NewState(36, 5)
		p, err := pr.PlaceChunksCtx(context.Background(), 9, 5, st)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := metrics.EvaluateFresh(g, 5, 9, p.CacheNodes(), metrics.AccessCostNearest)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Total(), metrics.Gini(st.Counts())
	}
	cost1, gini1 := run(1)
	cost2, gini2 := run(2)
	cost3, _ := run(3)
	if cost1 < cost2-1e-9 {
		t.Errorf("1-hop cost %.1f below 2-hop %.1f; expected 1-hop to be no better", cost1, cost2)
	}
	if gini1 < gini2-1e-9 {
		t.Errorf("1-hop gini %.3f below 2-hop %.3f; expected 1-hop to be no fairer", gini1, gini2)
	}
	// k >= 2 should be nearly flat (within 10%).
	if diff := math.Abs(cost3-cost2) / cost2; diff > 0.10 {
		t.Errorf("k=2 vs k=3 cost differs by %.1f%%, want < 10%%", 100*diff)
	}
}

func TestProtocolSurvivesMessageLoss(t *testing.T) {
	// Deterministically drop a fraction of TIGHT messages: the protocol
	// must still terminate (nodes fall back to the producer) and respect
	// capacity.
	g := graph.NewGrid(5, 5)
	opts := DefaultOptions()
	counter := 0
	opts.Drop = func(from, to int, p sim.Payload) bool {
		if p.Kind() != KindTight {
			return false
		}
		counter++
		return counter%3 == 0
	}
	pr, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.NewState(25, 5)
	p, err := pr.PlaceChunksCtx(context.Background(), 12, 2, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range p.Chunks {
		for j, a := range run.Assign {
			if a < 0 {
				t.Errorf("node %d left unassigned under loss", j)
			}
		}
	}
}

func TestProtocolDeterministic(t *testing.T) {
	// The second instance meets equal-cost ADMINs and sums several SPAN
	// payments: picking among covered ADMINs or summing payments in map
	// order gave it two or three distinct outcomes in ten runs.
	cases := []struct {
		producer, capacity, chunks, repeats int
	}{
		{producer: 12, capacity: 5, chunks: 3, repeats: 2},
		{producer: 2, capacity: 1, chunks: 6, repeats: 10},
	}
	g := graph.NewGrid(5, 5)
	for _, tc := range cases {
		var first *Placement
		for r := 0; r < tc.repeats; r++ {
			pr, err := New(g, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			p, err := pr.PlaceChunksCtx(context.Background(), tc.producer, tc.chunks, cache.NewState(25, tc.capacity))
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = p
				continue
			}
			for n := range first.Chunks {
				a, b := first.Chunks[n], p.Chunks[n]
				if !slices.Equal(a.CacheNodes, b.CacheNodes) || !slices.Equal(a.Assign, b.Assign) ||
					a.Rounds != b.Rounds || !maps.Equal(a.Messages, b.Messages) {
					t.Fatalf("producer %d capacity %d chunk %d, run %d: nondeterministic\n%+v\nvs\n%+v", tc.producer, tc.capacity, n, r, a, b)
				}
			}
		}
	}
}

// Property: on random connected topologies the protocol terminates, all
// nodes get assignments, admins hold the chunk, and capacity holds.
func TestProtocolInvariants(t *testing.T) {
	f := func(seed int64, nRaw, qRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(nRaw)%10
		q := 1 + int(qRaw)%3
		g := randomConnectedGraph(rng, n)
		producer := rng.Intn(n)
		pr, err := New(g, DefaultOptions())
		if err != nil {
			return false
		}
		st := cache.NewState(n, 2)
		p, err := pr.PlaceChunksCtx(context.Background(), producer, q, st)
		if err != nil {
			return false
		}
		for chunkID, run := range p.Chunks {
			for _, a := range run.Assign {
				if a < 0 {
					return false
				}
			}
			for _, v := range run.CacheNodes {
				if v == producer || !st.Has(v, chunkID) {
					return false
				}
			}
		}
		for i := 0; i < n; i++ {
			if st.Stored(i) > st.Capacity(i) {
				return false
			}
		}
		return st.Stored(producer) == 0
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randomConnectedGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		_ = g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for i := 0; i < rng.Intn(n+1); i++ {
		_ = g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestProtocolTraceHook(t *testing.T) {
	g := graph.NewGrid(4, 4)
	opts := DefaultOptions()
	seen := map[string]int{}
	opts.Trace = func(round, from, to int, p sim.Payload) {
		if from < 0 || from >= 16 || to < 0 || to >= 16 {
			t.Errorf("trace out-of-range endpoints %d->%d", from, to)
		}
		seen[p.Kind()]++
	}
	pr, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.PlaceChunksCtx(context.Background(), 5, 1, cache.NewState(16, 5)); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{KindNPI, KindCC, KindCCResp} {
		if seen[kind] == 0 {
			t.Errorf("trace never saw %s", kind)
		}
	}
}

func TestPlaceChunksStopsAtDeadline(t *testing.T) {
	// A bid step of 1e-9 asks for 9e9 rounds on a 3×3 grid; 1e-300
	// leaves the int range, and the bound saturates. Either way only the
	// deadline ends the solve, and it must end it promptly.
	for _, step := range []float64{1e-9, 1e-300} {
		opts := DefaultOptions()
		opts.AlphaStep = step
		pr, err := New(graph.NewGrid(3, 3), opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err = pr.PlaceChunksCtx(ctx, 4, 2, cache.NewState(9, 5))
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("AlphaStep %g: err = %v, want context.DeadlineExceeded", step, err)
		}
		if took > 2*time.Second {
			t.Errorf("AlphaStep %g: solve stopped %v after a 100ms deadline", step, took)
		}
	}
}

func TestRoundBoundSaturates(t *testing.T) {
	g := graph.NewGrid(3, 3)
	weights := make([]float64, 9)
	for i := range weights {
		weights[i] = 1
	}
	for _, tc := range []struct {
		step float64
		want int
	}{
		{step: 1, want: 3 + 4*9 + 32}, // a corner is 3 unit-weight nodes from the center
		{step: 1e-18, want: 3e18 + 4*9 + 32},
		{step: 1e-19, want: math.MaxInt},
		{step: 1e-300, want: math.MaxInt},
	} {
		pr, err := New(g, Options{AlphaStep: tc.step})
		if err != nil {
			t.Fatal(err)
		}
		if got := pr.roundBound(4, weights); got != tc.want {
			t.Errorf("AlphaStep %g: roundBound = %d, want %d", tc.step, got, tc.want)
		}
	}
}
