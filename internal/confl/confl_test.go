package confl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/graph"
)

// lineInstance builds an instance over a path graph 0-1-...-(n-1) with an
// empty cache, producer at p.
func lineInstance(t *testing.T, n, p int) Instance {
	t.Helper()
	g := graph.New(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i-1, i); err != nil {
			t.Fatal(err)
		}
	}
	return instanceFrom(g, cache.NewState(n, 5), p)
}

func instanceFrom(g *graph.Graph, st *cache.State, producer int) Instance {
	costs := contention.ComputeCosts(g, st)
	fc := st.FairnessCosts()
	return Instance{
		N:            g.NumNodes(),
		Producer:     producer,
		FacilityCost: fc,
		ConnCost:     costs.C,
		PreOpen:      nil,
	}
}

func TestSolveValidation(t *testing.T) {
	valid := lineInstance(t, 4, 0)
	tests := []struct {
		name   string
		mutate func(Instance) Instance
	}{
		{name: "zero nodes", mutate: func(in Instance) Instance { in.N = 0; return in }},
		{name: "producer out of range", mutate: func(in Instance) Instance { in.Producer = 9; return in }},
		{name: "bad facility cost length", mutate: func(in Instance) Instance { in.FacilityCost = in.FacilityCost[:2]; return in }},
		{name: "bad cost rows", mutate: func(in Instance) Instance { in.ConnCost = in.ConnCost[:1]; return in }},
		{name: "bad pre-open", mutate: func(in Instance) Instance { in.PreOpen = []int{9}; return in }},
		{name: "unreachable node", mutate: func(in Instance) Instance {
			in.ConnCost[0*in.N+3] = math.Inf(1)
			return in
		}},
	}
	for _, tt := range tests {
		inst := tt.mutate(lineInstance(t, 4, 0))
		if _, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil); !errors.Is(err, ErrBadInstance) {
			t.Errorf("%s: err = %v, want ErrBadInstance", tt.name, err)
		}
	}
	if _, err := SolveScratchCtx(context.Background(), valid, DefaultOptions(), nil); err != nil {
		t.Errorf("valid instance: %v", err)
	}
}

func TestSolveAllFrozenAndAssigned(t *testing.T) {
	inst := lineInstance(t, 8, 0)
	sol, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < inst.N; j++ {
		if sol.Assign[j] < 0 || sol.Assign[j] >= inst.N {
			t.Errorf("Assign[%d] = %d, not a node", j, sol.Assign[j])
		}
	}
	if sol.Assign[0] != 0 {
		t.Errorf("producer assigned to %d, want itself", sol.Assign[0])
	}
	if sol.Iterations <= 0 {
		t.Error("Iterations = 0, expected progress to be counted")
	}
}

func TestSolveAssignsToOpenFacilitiesOnly(t *testing.T) {
	inst := lineInstance(t, 10, 0)
	sol, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	openSet := map[int]bool{inst.Producer: true}
	for _, f := range sol.Facilities {
		openSet[f] = true
	}
	for j, a := range sol.Assign {
		if !openSet[a] {
			t.Errorf("Assign[%d] = %d which is not open (facilities %v)", j, a, sol.Facilities)
		}
	}
}

func TestSolveFullNodesNeverChosen(t *testing.T) {
	g := graph.NewGrid(3, 3)
	st := cache.NewState(9, 1)
	// Fill every node except producer 4 and nodes 0, 8.
	for _, v := range []int{1, 2, 3, 5, 6, 7} {
		if err := st.Store(v, 99); err != nil {
			t.Fatal(err)
		}
	}
	inst := instanceFrom(g, st, 4)
	sol, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sol.Facilities {
		if f != 0 && f != 8 {
			t.Errorf("full node %d chosen as facility", f)
		}
	}
}

func TestSolveHighQuorumFallsBackToProducer(t *testing.T) {
	inst := lineInstance(t, 6, 0)
	opts := DefaultOptions()
	opts.SpanQuorum = 100 // unreachable quorum: nobody volunteers
	sol, err := SolveScratchCtx(context.Background(), inst, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Facilities) != 0 {
		t.Errorf("Facilities = %v, want none", sol.Facilities)
	}
	for j, a := range sol.Assign {
		if a != 0 {
			t.Errorf("Assign[%d] = %d, want producer 0", j, a)
		}
	}
}

func TestSolveOpensFacilityOnLongLine(t *testing.T) {
	// On a long line with producer at one end, distant demands should
	// recruit a closer ADMIN rather than all connecting to the producer.
	inst := lineInstance(t, 20, 0)
	opts := DefaultOptions()
	opts.SpanQuorum = 2
	sol, err := SolveScratchCtx(context.Background(), inst, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Facilities) == 0 {
		t.Fatal("no facility opened on a 20-node line with quorum 2")
	}
	// At least one distant node should be served by a non-producer.
	servedByAdmin := 0
	for _, a := range sol.Assign {
		if a != 0 {
			servedByAdmin++
		}
	}
	if servedByAdmin == 0 {
		t.Error("all demands assigned to producer despite open facilities")
	}
}

func TestSolvePreOpenServesNeighbors(t *testing.T) {
	inst := lineInstance(t, 10, 0)
	inst.PreOpen = []int{9}
	sol, err := SolveScratchCtx(context.Background(), inst, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Assign[9] != 9 {
		t.Errorf("pre-open node assigned to %d, want itself", sol.Assign[9])
	}
	if sol.Assign[8] != 9 {
		t.Errorf("Assign[8] = %d, want pre-open neighbor 9", sol.Assign[8])
	}
}

func TestSolveIterationBoundError(t *testing.T) {
	inst := lineInstance(t, 12, 0)
	opts := DefaultOptions()
	opts.MaxIterations = 1
	if _, err := SolveScratchCtx(context.Background(), inst, opts, nil); !errors.Is(err, ErrNoProgress) {
		t.Errorf("err = %v, want ErrNoProgress", err)
	}
}

func TestSolveSmallerAlphaStepNoWorse(t *testing.T) {
	// A finer step should not increase the number of ADMIN nodes wildly;
	// mostly we check both terminate and produce valid solutions, and the
	// finer step takes more iterations (Sec. IV-B trade-off).
	inst := lineInstance(t, 15, 7)
	coarse, err := SolveScratchCtx(context.Background(), inst, Options{AlphaStep: 4, GammaStep: 4, SpanQuorum: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := SolveScratchCtx(context.Background(), lineInstance(t, 15, 7), Options{AlphaStep: 0.25, GammaStep: 0.25, SpanQuorum: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Iterations <= coarse.Iterations {
		t.Errorf("fine step iterations %d <= coarse %d", fine.Iterations, coarse.Iterations)
	}
}

func TestSolveDeterministic(t *testing.T) {
	g := graph.NewGrid(4, 4)
	st := cache.NewState(16, 5)
	a, err := SolveScratchCtx(context.Background(), instanceFrom(g, st, 5), DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveScratchCtx(context.Background(), instanceFrom(g, st, 5), DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Facilities) != len(b.Facilities) {
		t.Fatalf("non-deterministic facilities: %v vs %v", a.Facilities, b.Facilities)
	}
	for i := range a.Facilities {
		if a.Facilities[i] != b.Facilities[i] {
			t.Fatalf("non-deterministic facilities: %v vs %v", a.Facilities, b.Facilities)
		}
	}
	for j := range a.Assign {
		if a.Assign[j] != b.Assign[j] {
			t.Fatalf("non-deterministic assignment at %d: %d vs %d", j, a.Assign[j], b.Assign[j])
		}
	}
}

// Property: on random connected graphs with random producers, SolveScratchCtx
// terminates with every node assigned to an open facility, never selects
// the producer as a facility, and dual values are bounded by the cost of
// connecting to the producer plus one step.
func TestSolveProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%15
		g := randomConnectedGraph(rng, n)
		st := cache.NewState(n, 3)
		for k := 0; k < n/2; k++ {
			_ = st.Store(rng.Intn(n), rng.Intn(4))
		}
		producer := rng.Intn(n)
		inst := instanceFrom(g, st, producer)
		opts := DefaultOptions()
		opts.SpanQuorum = 1 + rng.Intn(3)
		sol, err := SolveScratchCtx(context.Background(), inst, opts, nil)
		if err != nil {
			return false
		}
		open := map[int]bool{producer: true}
		for _, fac := range sol.Facilities {
			if fac == producer {
				return false
			}
			open[fac] = true
		}
		for j, a := range sol.Assign {
			if !open[a] {
				return false
			}
			// α_j never exceeds the producer connection cost by more
			// than one step: once it covers the producer, j freezes.
			if sol.Alpha[j] > inst.ConnCost[producer*inst.N+j]+opts.AlphaStep+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(23))}
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

// TestTinyAlphaStepRunsToDeadline checks the tick bound saturates instead
// of wrapping negative for a step so small that maxC/step leaves the int
// range, so such a dual growth runs until its context's deadline rather
// than failing with ErrNoProgress before its first tick.
func TestTinyAlphaStepRunsToDeadline(t *testing.T) {
	for _, tc := range []struct {
		maxC, step float64
		want       int
	}{
		{maxC: 3, step: 1, want: 3 + 11},
		{maxC: 3, step: 1e-18, want: 3e18 + 11},
		{maxC: 3, step: 1e-19, want: math.MaxInt},
		{maxC: 3, step: 1e-300, want: math.MaxInt},
	} {
		if got := TickBound(tc.maxC, tc.step, 11); got != tc.want {
			t.Errorf("TickBound(%g, %g, 11) = %d, want %d", tc.maxC, tc.step, got, tc.want)
		}
	}

	opts := DefaultOptions()
	opts.AlphaStep = 1e-300
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SolveScratchCtx(ctx, lineInstance(t, 9, 4), opts, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("dual growth stopped %v after a 50ms deadline", took)
	}
}
