// Determinism and cost tests for the tracing layer: the explain/span
// machinery must be a pure observer. A traced solve and an untraced
// solve of the same request must produce byte-identical placements on
// every topology family and worker count, and tracing must be free when
// off — the disabled path may not add a single allocation to the warm
// solve loop.
package faircache_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	faircache "repro"
)

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
// tracing fully off, then with sampling on plus Explain, and requires
// identical Holders and Counts — on grid, random and clustered
// topologies, sequential and with a worker pool. Run under -race this
// also exercises the span ring's locking against the solve path.
func TestTracingDoesNotChangePlacements(t *testing.T) {
	for _, tc := range traceTopologies(t) {
		for _, workers := range []int{1, 4} {
			t.Run(tc.name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				base, err := faircache.NewSolver(tc.topo)
				if err != nil {
					t.Fatal(err)
				}
				traced, err := faircache.NewSolver(tc.topo)
				if err != nil {
					t.Fatal(err)
				}
				traced.SetTraceSampling(1) // every solve lands in the ring
				req := func(explain bool) faircache.Request {
					return faircache.Request{
						Producer: tc.producer,
						Chunks:   6,
						Options: &faircache.Options{
							Capacity: 4,
							Workers:  workers,
							Explain:  explain,
						},
					}
				}
				plain, err := base.Solve(context.Background(), req(false))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					got, err := traced.Solve(context.Background(), req(true))
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

// TestTraceSpansRing checks sampled spans land in the solver ring under
// one generated trace id and that the slowerThan filter excludes fast
// spans.
func TestTraceSpansRing(t *testing.T) {
	topo, err := faircache.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := solver.TraceSpans(0); len(got) != 0 {
		t.Fatalf("fresh solver has %d spans, want 0", len(got))
	}
	solver.SetTraceSampling(1)
	if got := solver.TraceSampling(); got != 1 {
		t.Fatalf("TraceSampling = %d, want 1", got)
	}
	if _, err := solver.Solve(context.Background(), faircache.Request{
		Producer: 0,
		Chunks:   3,
	}); err != nil {
		t.Fatal(err)
	}
	spans := solver.TraceSpans(0)
	if len(spans) == 0 {
		t.Fatal("sampled solve left no spans in the ring")
	}
	sawRoot := false
	for _, sp := range spans {
		if sp.TraceID != spans[0].TraceID || !strings.HasPrefix(sp.TraceID, "local-") {
			t.Errorf("span %s has trace id %q, want the solve's generated local- id", sp.Name, sp.TraceID)
		}
		if sp.Name == "solve" {
			sawRoot = true
			if sp.ParentID != 0 {
				t.Errorf("root span has parent %d", sp.ParentID)
			}
		} else if sp.ParentID == 0 {
			t.Errorf("span %s has no parent", sp.Name)
		}
	}
	if !sawRoot {
		t.Errorf("ring holds no root solve span: %v", spans)
	}
	// A filter far above any real duration excludes everything.
	if got := solver.TraceSpans(3600 * 1000); len(got) != 0 {
		t.Errorf("slowerThan filter kept %d spans, want 0", len(got))
	}
}

// TestOnTraceSpanObserver checks the streaming hook fires once per
// sampled span (the server's phase histograms hang off this).
func TestOnTraceSpanObserver(t *testing.T) {
	topo, err := faircache.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := faircache.NewSolver(topo)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	solver.OnTraceSpan(func(sp faircache.TraceSpan) { names = append(names, sp.Name) })
	solver.SetTraceSampling(1)
	if _, err := solver.Solve(context.Background(), faircache.Request{Producer: 0, Chunks: 2}); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "solve") || !strings.Contains(joined, "confl") {
		t.Errorf("observer saw %q, want solve and confl spans", joined)
	}
}

// TestTracingOffAllocFree pins the disabled-path cost to zero: a warm
// solve with sampling off and no Explain allocates exactly as many times
// as the pre-tracing baseline, measured as a delta between two identical
// loops on the same solver. Sampled solves may allocate, but only a
// bounded amount (ring copy + id).
func TestTracingOffAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts jitter under the race detector; run without -race")
	}
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
		Options:  &faircache.Options{Capacity: 3, Workers: 1},
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

	solver.SetTraceSampling(1)
	sampled := testing.AllocsPerRun(10, solve)
	t.Logf("tracing sampled: %.0f allocs/run", sampled)
	if sampled > before+200 {
		t.Errorf("sampled tracing adds %.0f allocs/run over %.0f, want <= 200 extra", sampled-before, before)
	}
	solver.SetTraceSampling(0)
	off := testing.AllocsPerRun(10, solve)
	t.Logf("tracing re-disabled: %.0f allocs/run", off)
	if off > before {
		t.Errorf("re-disabled tracing allocates %.0f/run, baseline was %.0f", off, before)
	}
}
