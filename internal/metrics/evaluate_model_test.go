package metrics

import (
	"context"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/costmodel"
	"repro/internal/graph"
)

// TestEvaluateModelMatchesEvaluate checks the cost-model replay against
// Evaluate, bit for bit and error for error, under every access strategy
// on inputs no solve produces: invalid arguments, over-capacity holders,
// a disconnected graph, an unknown strategy and a pre-loaded state (whose
// fork cannot reuse the base matrices). The repo-level differential test
// covers real solve results.
func TestEvaluateModelMatchesEvaluate(t *testing.T) {
	line := graph.New(4)
	mustEdge(t, line, 0, 1)
	mustEdge(t, line, 1, 2)
	mustEdge(t, line, 2, 3)
	split := graph.New(4)
	mustEdge(t, split, 0, 1)
	mustEdge(t, split, 2, 3)
	grid := graph.NewGrid(3, 3)
	loaded := cache.NewState(9, 3)
	for _, p := range [][2]int{{4, 10}, {4, 11}, {8, 10}, {1, 12}} {
		if err := loaded.Store(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		g        *graph.Graph
		st       *cache.State
		producer int
		holders  [][]int
		fails    bool
	}{
		{"line", line, cache.NewState(4, 5), 0, [][]int{{3}, {2, 3}, nil}, false},
		{"grid loaded holder", grid, cache.NewState(9, 5), 0, [][]int{{8}, {8}, {8, 4}}, false},
		{"pre-loaded state", grid, loaded, 2, [][]int{{4}, {6, 8}, {0, 8}}, false},
		{"duplicate holder", grid, cache.NewState(9, 5), 0, [][]int{{5, 5}}, false},
		{"state size mismatch", grid, cache.NewState(4, 5), 0, [][]int{{1}}, true},
		{"bad producer", grid, cache.NewState(9, 5), 9, [][]int{{1}}, true},
		{"over capacity", grid, cache.NewState(9, 1), 0, [][]int{{1}, {1}}, true},
		{"holder out of range", grid, cache.NewState(9, 5), 0, [][]int{{9}}, true},
		{"disconnected holder", split, cache.NewState(4, 5), 0, [][]int{{3}}, true},
		{"unreachable node", split, cache.NewState(4, 5), 0, [][]int{{1}}, true},
	}
	strategies := []AccessStrategy{AccessHopNearest, AccessTopologyNearest, AccessCostNearest, AccessStrategy(99)}
	for _, tc := range cases {
		base, err := costmodel.New(tc.g, nil, cache.NewState(tc.g.NumNodes(), 1), costmodel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := base.RefreshCtx(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		stored := tc.st.TotalStored()
		for _, strategy := range strategies {
			want, werr := Evaluate(tc.g, tc.st, tc.producer, tc.holders, strategy)
			got, gerr := EvaluateModel(context.Background(), base, tc.st, tc.producer, tc.holders, strategy, nil)
			if tc.st.TotalStored() != stored {
				t.Fatalf("%s/%d: EvaluateModel mutated the state", tc.name, strategy)
			}
			if fails := tc.fails || strategy == AccessStrategy(99); (werr != nil) != fails {
				t.Errorf("%s/%d: Evaluate error %v, want failure %v", tc.name, strategy, werr, fails)
			}
			if werr != nil || gerr != nil {
				if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
					t.Errorf("%s/%d: EvaluateModel error %v, Evaluate error %v", tc.name, strategy, gerr, werr)
				}
				continue
			}
			if !sameEval(got, want) {
				t.Errorf("%s/%d: EvaluateModel %+v, Evaluate %+v", tc.name, strategy, got, want)
			}
		}
	}
}

// sameEval compares two evaluations field by field with math.Float64bits.
func sameEval(a, b *Eval) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Access, b.Access) || !same(a.Dissemination, b.Dissemination) || !same(a.AccessDelay, b.AccessDelay) || len(a.PerChunk) != len(b.PerChunk) {
		return false
	}
	for n := range a.PerChunk {
		if !same(a.PerChunk[n].Access, b.PerChunk[n].Access) || !same(a.PerChunk[n].Dissemination, b.PerChunk[n].Dissemination) || !same(a.PerChunk[n].AccessDelay, b.PerChunk[n].AccessDelay) {
			return false
		}
	}
	return true
}
