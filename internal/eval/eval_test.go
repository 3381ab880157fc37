package eval

import (
	"errors"
	"slices"
	"strings"
	"testing"

	faircache "repro"
)

// fastScenario keeps test instances small: 3 chunks, tight search budget,
// 2 seeds.
func fastScenario() Scenario {
	sc := DefaultScenario()
	sc.Chunks = 3
	sc.OptimalBudget = 500
	sc.Seeds = []int64{1, 2}
	return sc
}

func TestRunUnknownAlgorithm(t *testing.T) {
	p, err := DefaultScenario().onGrid(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.run("nope", nil); !errors.Is(err, faircache.ErrBadArgument) {
		t.Errorf("unknown algorithm: err = %v, want ErrBadArgument", err)
	}
}

func TestRunFig1Small(t *testing.T) {
	sc := fastScenario()
	topo, err := faircache.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p := sc.producerOn(topo); p != 9 {
		t.Errorf("producer = %d, want 9", p)
	}
	fig, err := RunFig1(4, 4, sc)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fig.Column("Brtf count")); n != 16 {
		t.Fatalf("reference length = %d", n)
	}
	for _, alg := range Algorithms {
		if n := len(fig.Column(alg.String())); n != 16 {
			t.Errorf("%s: diff length %d", alg, n)
		}
	}
	// The diff of the optimal against itself is not included; the
	// approximation should differ somewhere but sum to a small offset.
	if hopc, ref := fig.Value("9", "Hopc"), fig.Value("9", "Brtf count"); hopc != -ref {
		t.Errorf("producer diff inconsistent: %g vs reference %g", hopc, ref)
	}
}

func TestRunFig2SmallShape(t *testing.T) {
	sc := fastScenario()
	tab, err := RunFig2Small([]int{3}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := tab.Column("nodes"); len(nodes) != 1 || nodes[0] != 9 {
		t.Fatalf("nodes = %v", nodes)
	}
	optimal := tab.Value("9", "Brtf")
	if optimal <= 0 {
		t.Error("optimal cost not computed")
	}
	for _, alg := range Algorithms {
		if cost := tab.Value("9", alg.String()); cost <= 0 {
			t.Errorf("%s cost = %g", alg, cost)
		}
	}
	// Approximation guarantee on the evaluation metric: within 6.55x of
	// the (budgeted) optimum reference.
	if appx := tab.Value("9", "Appx"); appx > 6.55*optimal {
		t.Errorf("Appx %g exceeds 6.55x optimal %g", appx, optimal)
	}
}

func TestRunFig2LargeOrdering(t *testing.T) {
	sc := fastScenario()
	tab, err := RunFig2Large([]int{8}, sc)
	if err != nil {
		t.Fatal(err)
	}
	appx, hopc := tab.Value("64", "Appx"), tab.Value("64", "Hopc")
	if hopc <= appx {
		t.Errorf("Hopc %g not worse than Appx %g on a large grid", hopc, appx)
	}
	if want := "Fig. 2(b) — total contention cost, large grids (64 nodes)"; tab.Title != want {
		t.Errorf("title %q, want %q", tab.Title, want)
	}
	if _, err := RunFig2Large(nil, sc); !errors.Is(err, faircache.ErrBadArgument) {
		t.Errorf("no grid sides: err = %v, want ErrBadArgument", err)
	}
}

func TestRunFig3HopSweep(t *testing.T) {
	sc := fastScenario()
	tab, err := RunFig3(6, 6, 3, sc)
	if err != nil {
		t.Fatal(err)
	}
	limits, total := tab.Column("hop limit"), tab.Column("total")
	if len(limits) != 3 {
		t.Fatalf("rows = %d, want 3", len(limits))
	}
	if limits[0] != 1 || limits[2] != 3 {
		t.Errorf("hop limits = %g..%g", limits[0], limits[2])
	}
	// Fig. 3's claim: 1 hop is no better than 2 hops.
	if total[0] < total[1]-1e-9 {
		t.Errorf("1-hop %g beats 2-hop %g", total[0], total[1])
	}
}

func TestRunFig4Averaging(t *testing.T) {
	sc := fastScenario()
	tab, err := RunFig4([]int{20}, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if cost := tab.Value("20", alg.String()); cost <= 0 {
			t.Errorf("%s average cost = %g", alg, cost)
		}
	}
	if _, err := RunFig4([]int{20}, Scenario{Chunks: 1, Capacity: 5}); err == nil {
		t.Error("no seeds: want error")
	}
}

func TestRunFig5Timing(t *testing.T) {
	sc := fastScenario()
	tab, err := RunFig5([]int{4}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(tab.Header, faircache.AlgorithmDistributed.String()) {
		t.Error("Fig 5 must exclude the distributed algorithm (paper does)")
	}
	for _, alg := range []faircache.Algorithm{faircache.AlgorithmApprox, faircache.AlgorithmHopCount, faircache.AlgorithmContention} {
		if ms := tab.Value("16", alg.String()); ms <= 0 {
			t.Errorf("%s elapsed = %g ms", alg, ms)
		}
	}
}

func TestRunFig6FairnessOrdering(t *testing.T) {
	sc := DefaultScenario() // full 5-chunk scenario for the headline claim
	fig, err := RunFig6(6, 6, sc)
	if err != nil {
		t.Fatal(err)
	}
	appx := fig.Value("Appx", "75-pct fairness")
	cont := fig.Value("Cont", "75-pct fairness")
	hopc := fig.Value("Hopc", "75-pct fairness")
	if !(appx > cont && cont > hopc) {
		t.Errorf("75-percentile fairness ordering violated: appx %g, cont %g, hopc %g", appx, cont, hopc)
	}
	// The storage curve has one point per node and must reach all of the
	// data within the grid's 36 nodes.
	for _, alg := range Algorithms {
		if k := fig.Value(alg.String(), "100%"); k < 1 || k > 36 {
			t.Errorf("%s: curve does not reach 1 within 36 nodes (%g)", alg, k)
		}
	}
}

func TestRunFig7GiniShapes(t *testing.T) {
	sc := fastScenario()
	grid, err := RunFig7Grid([]int{6}, DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	appx, hopc := grid.Value("36", "Appx"), grid.Value("36", "Hopc")
	if appx >= 0.4 {
		t.Errorf("Appx gini = %g, want < 0.4 (paper headline)", appx)
	}
	if hopc <= appx {
		t.Error("Hopc not less fair than Appx")
	}
	random, err := RunFig7Random([]int{20}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if random.Value("20", "Appx") <= 0 {
		t.Error("random-network gini not computed")
	}
}

func TestRunFig8BaselineJumpAtCapacity(t *testing.T) {
	sc := DefaultScenario()
	tab, err := RunFig8(4, 4, 6, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Fig. 8's discontinuity: the Contention baseline's increment jumps
	// when chunk 6 forces a second node set (capacity 5), while the fair
	// algorithm keeps growing smoothly.
	inc := func(alg faircache.Algorithm, q int) float64 {
		total := tab.Column(alg.String())
		return total[q-1] - total[q-2]
	}
	if inc(faircache.AlgorithmContention, 6) <= inc(faircache.AlgorithmContention, 5) {
		t.Errorf("Cont: no capacity jump (inc5 %g, inc6 %g)",
			inc(faircache.AlgorithmContention, 5), inc(faircache.AlgorithmContention, 6))
	}
	if inc(faircache.AlgorithmApprox, 6) > 1.5*inc(faircache.AlgorithmApprox, 5) {
		t.Errorf("Appx: unexpected jump at chunk 6 (inc5 %g, inc6 %g)",
			inc(faircache.AlgorithmApprox, 5), inc(faircache.AlgorithmApprox, 6))
	}
}

func TestRunFig9PerChunkEvenness(t *testing.T) {
	sc := DefaultScenario()
	fig, err := RunFig9(4, 4, 10, sc)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(xs []float64) float64 {
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return hi - lo
	}
	appx := fig.Column("Appx")
	dist := fig.Column("Dist")
	hopc := fig.Column("Hopc")
	cont := fig.Column("Cont")
	if len(appx) != 10 || len(hopc) != 10 {
		t.Fatalf("per-chunk lengths: %d, %d", len(appx), len(hopc))
	}
	// Evenness on the 4×4: the distributed algorithm's spread must beat
	// the Contention baseline's (whose chunk-group switch steps the
	// cost).
	if spread(dist) >= spread(cont) {
		t.Errorf("Dist per-chunk spread %g not tighter than Cont %g", spread(dist), spread(cont))
	}

	// Paper: "the Contention Cost is ... lower than other two algorithms
	// for most chunks" — on the 6×6 grid of Fig. 9(b).
	fig6x6, err := RunFig9(6, 6, 10, sc)
	if err != nil {
		t.Fatal(err)
	}
	appx6 := fig6x6.Column("Appx")
	hopc6 := fig6x6.Column("Hopc")
	cont6 := fig6x6.Column("Cont")
	lowerCount := 0
	for n := range appx6 {
		if appx6[n] < hopc6[n] && appx6[n] < cont6[n] {
			lowerCount++
		}
	}
	if lowerCount < 7 {
		t.Errorf("Appx cheaper than both baselines on only %d/10 chunks (6x6)", lowerCount)
	}
}

func TestRunTable2MessageAccounting(t *testing.T) {
	sc := fastScenario()
	tab, err := RunTable2(6, 6, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.After) != 1 || !strings.HasSuffix(tab.After[0], ": true") {
		t.Errorf("message total exceeds its bound: %q", tab.After)
	}
	for _, kind := range []string{"NPI", "CC", "TIGHT"} {
		if tab.Value(kind, "count") == 0 {
			t.Errorf("no %s messages", kind)
		}
	}
	if tab.Value("total", "count") <= 0 {
		t.Error("no messages recorded")
	}
}

func TestRunAblations(t *testing.T) {
	tab, err := RunAblations(DefaultScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if total := tab.Value(row[0].Text, "total cost"); total <= 0 {
			t.Errorf("%s: non-positive cost", row[0].Text)
		}
	}
	// Quorum knob monotonicity: larger M, fewer caches.
	if tab.Value("quorum M=1", "distinct caches") < tab.Value("quorum M=4", "distinct caches") {
		t.Error("quorum sweep not monotone in cache count")
	}
	// Steiner local search never raises dissemination vs default.
	if tab.Value("steiner local search", "dissemination") > tab.Value("default (M=2, Uγ=2.5, w=1)", "dissemination")+1e-9 {
		t.Error("local search raised dissemination")
	}
}
