package eval

import (
	"testing"
)

// smokeScenario shrinks the replay to CI scale: a 100k-request trace on
// a smaller grid, adapting often enough to converge inside the budget.
func smokeScenario() AdaptiveScenario {
	return AdaptiveScenario{
		Rows: 9, Cols: 9,
		Chunks:     48,
		Requests:   100_000,
		AdaptEvery: 5_000,
		DriftEvery: -1, // stationary popularity: the smoke asserts convergence
	}
}

func TestAdaptReplaySmoke(t *testing.T) {
	tab, err := RunAdaptive(smokeScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		policy := row[0].Text
		v := func(header string) float64 { return tab.Value(policy, header) }
		if v("hit-rate") < 0 || v("hit-rate") > 1 || v("cache-rate") < v("hit-rate") {
			t.Errorf("%s: inconsistent rates: %v", policy, row)
		}
		if v("mean cost") < 0 || v("p99 cost") < v("mean cost") {
			t.Errorf("%s: inconsistent costs: %v", policy, row)
		}
	}
	if adaptive, static := tab.Value("adaptive", "hit-rate"), tab.Value("static", "hit-rate"); adaptive <= static {
		t.Errorf("adaptive hit-rate %.4f does not beat static %.4f", adaptive, static)
	}
	if adaptive, static := tab.Value("adaptive", "gini final"), tab.Value("static", "gini final"); adaptive > static {
		t.Errorf("adaptive GiniFinal %.4f worse than static %.4f", adaptive, static)
	}
	if tab.Value("adaptive", "adaptations") == 0 || tab.Value("adaptive", "copies placed") == 0 {
		t.Errorf("adaptive did no work: %v", tab.Rows[2])
	}
	if tab.Value("lru", "evictions") == 0 {
		t.Errorf("lru baseline did not churn: %v", tab.Rows[1])
	}
}

func TestAdaptReplayDeterministic(t *testing.T) {
	sc := smokeScenario()
	sc.Requests = 30_000
	run := func() *Table {
		tab, err := RunAdaptive(sc)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	a, b := run(), run()
	for i := range a.Rows {
		for c, h := range a.Header {
			// The ms column is wall time; everything else must replay
			// identically.
			if h != "ms" && a.Rows[i][c] != b.Rows[i][c] {
				t.Errorf("row %d %s diverged: %v, %v", i, h, a.Rows[i][c], b.Rows[i][c])
			}
		}
	}
}
