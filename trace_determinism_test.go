// Determinism and cost tests for the tracing layer: the explain/span
// machinery must be a pure observer. A traced solve and an untraced
// solve of the same request must produce byte-identical placements on
// every topology family and pool width, and tracing must be free when
// off — the disabled path may not add a single allocation to the warm
// solve loop.
package faircache_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	faircache "repro"

	"repro/internal/trace"
)

// sampledContext returns a context carrying a trace of tracer, the way
// the daemon hands a sampled request's trace to the solver.
func sampledContext(tracer *trace.Tracer, collect bool) context.Context {
	return trace.NewContext(context.Background(), tracer.StartTrace("", collect))
}

// traceTopologies builds the three topology families the evaluation
// uses; each is paired with a valid producer.
func traceTopologies(t *testing.T) []struct {
	name     string
	topo     *faircache.Topology
	producer int
} {
	t.Helper()
	grid, err := faircache.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	random, err := faircache.Random(24, 7)
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := faircache.Clustered(3, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name     string
		topo     *faircache.Topology
		producer int
	}{
		{"grid", grid, 9},
		{"random", random, random.CentralNode()},
		{"clustered", clustered, clustered.CentralNode()},
	}
}

// TestTracingDoesNotChangePlacements solves the same request with
// tracing fully off, then in a sampled trace plus Explain, and requires
// identical Holders and Counts — on grid, random and clustered
// topologies, at GOMAXPROCS 1 and 4. Run under -race this also exercises
// the span ring's locking against the solve path.
func TestTracingDoesNotChangePlacements(t *testing.T) {
	for _, tc := range traceTopologies(t) {
		for _, workers := range []int{1, 4} {
			t.Run(tc.name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				setWidth(t, workers)
				base, err := faircache.NewSolver(tc.topo)
				if err != nil {
					t.Fatal(err)
				}
				traced, err := faircache.NewSolver(tc.topo)
				if err != nil {
					t.Fatal(err)
				}
				tracer := trace.New(0)
				tracer.SetSampling(1) // every solve lands in the ring
				req := func(explain bool) faircache.Request {
					return faircache.Request{
						Producer: tc.producer,
						Chunks:   6,
						Options: &faircache.Options{
							Capacity: 4,
							Explain:  explain,
						},
					}
				}
				plain, err := base.Solve(context.Background(), req(false))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					got, err := traced.Solve(sampledContext(tracer, true), req(true))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Holders, plain.Holders) {
						t.Fatalf("run %d: traced holders differ from untraced:\n got %v\nwant %v", i, got.Holders, plain.Holders)
					}
					if !reflect.DeepEqual(got.Counts, plain.Counts) {
						t.Fatalf("run %d: traced counts differ from untraced:\n got %v\nwant %v", i, got.Counts, plain.Counts)
					}
					if got.Trace == nil {
						t.Fatal("explain solve returned no trace report")
					}
				}
				if len(tracer.Views(0)) == 0 {
					t.Fatal("sampled solves left no spans in the ring")
				}
			})
		}
	}
}

// TestExplainReportShape checks the explain summary carries the solve's
// identity and the phases the approximation pipeline is known to run.
func TestExplainReportShape(t *testing.T) {
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), faircache.Request{
		Producer: 9,
		Chunks:   5,
		Options:  &faircache.Options{Explain: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Trace
	if rep == nil {
		t.Fatal("Explain set but Result.Trace is nil")
	}
	if !strings.HasPrefix(rep.TraceID, "local-") {
		t.Errorf("TraceID = %q, want a generated local- id", rep.TraceID)
	}
	if rep.Spans < 1+5 { // root + one span per chunk at minimum
		t.Errorf("Spans = %d, want at least 6", rep.Spans)
	}
	phases := map[string]faircache.ExplainPhase{}
	for _, ph := range rep.Phases {
		phases[ph.Phase] = ph
	}
	for _, want := range []string{"solve", "chunk", "confl", "steiner.connect"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("explain report missing phase %q (have %v)", want, rep.Phases)
		}
	}
	if ph := phases["chunk"]; ph.Count != 5 {
		t.Errorf("chunk phase ran %d spans, want 5", ph.Count)
	}
	if ph := phases["solve"]; ph.Counters["chunks"] != 5 || ph.Counters["producer"] != 9 {
		t.Errorf("solve counters = %v, want chunks=5 producer=9", ph.Counters)
	}
	// An untraced solver must not return a report.
	plain, err := solver.Solve(context.Background(), faircache.Request{Producer: 9, Chunks: 5})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("Explain unset but Result.Trace is non-nil")
	}
}

// TestTracingOffAllocFree pins the disabled-path cost to zero: a warm
// solve whose context carries no trace and with no Explain allocates
// exactly as many times as the pre-tracing baseline, measured as a delta
// between two identical loops on the same solver. Solves in a sampled
// trace may allocate, but only a bounded amount (ring copy + id).
func TestTracingOffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts jitter under the race detector; run without -race")
	}
	setWidth(t, 1)
	topo, err := faircache.Grid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	req := faircache.Request{
		Producer: 9,
		Chunks:   8,
		Options:  &faircache.Options{Capacity: 3},
	}
	solve := func() {
		if _, err := solver.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	solve() // cold build
	before := testing.AllocsPerRun(10, solve)
	after := testing.AllocsPerRun(10, solve)
	t.Logf("tracing off: %.0f then %.0f allocs/run", before, after)
	if after > before {
		t.Errorf("disabled tracing path not steady: %.0f allocs/run after %.0f", after, before)
	}

	tracer := trace.New(0)
	tracer.SetSampling(1)
	sampled := testing.AllocsPerRun(10, func() {
		if _, err := solver.Solve(sampledContext(tracer, false), req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("tracing sampled: %.0f allocs/run", sampled)
	if sampled > before+200 {
		t.Errorf("sampled tracing adds %.0f allocs/run over %.0f, want <= 200 extra", sampled-before, before)
	}
	off := testing.AllocsPerRun(10, solve)
	t.Logf("tracing re-disabled: %.0f allocs/run", off)
	if off > before {
		t.Errorf("re-disabled tracing allocates %.0f/run, baseline was %.0f", off, before)
	}
}
