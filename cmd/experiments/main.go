// Command experiments regenerates every table and figure of the paper's
// evaluation section (Sec. V) and prints them as markdown tables, suitable
// for pasting into EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-fig all|1|2|3|4|5|6|7|8|9|tab2|abl|part|adapt|phases] [-quick]
//	            [-algs appx,dist]
//
// -quick shrinks network sizes and search budgets for a fast smoke run.
// -algs restricts the comparison columns to a comma-separated algorithm
// list; names go through faircache.ParseAlgorithm, so legacy aliases
// ("approximate", "hopcount", ...) work and columns print canonically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	faircache "repro"

	"repro/internal/eval"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1-9, tab2, abl, part, adapt, phases")
	quick := flag.Bool("quick", false, "use reduced sizes and budgets")
	algs := flag.String("algs", "", "comma-separated algorithm filter (canonical names or legacy aliases, e.g. appx,dist)")
	flag.Parse()

	if err := applyAlgFilter(*algs); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if err := run(*fig, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// applyAlgFilter narrows eval.Algorithms to the requested set, keeping
// the canonical presentation order and rejecting unknown names up front.
func applyAlgFilter(spec string) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	want := map[faircache.Algorithm]bool{}
	for _, part := range strings.Split(spec, ",") {
		alg, err := faircache.ParseAlgorithm(part)
		if err != nil {
			return fmt.Errorf("-algs: %w", err)
		}
		want[alg] = true
	}
	filtered := make([]faircache.Algorithm, 0, len(eval.Algorithms))
	for _, a := range eval.Algorithms {
		if want[a] {
			filtered = append(filtered, a)
		}
	}
	if len(filtered) == 0 {
		return fmt.Errorf("-algs %q selects none of the comparison algorithms", spec)
	}
	eval.Algorithms = filtered
	return nil
}

// figure prints one -fig key's tables through emit, at full size or,
// with quick, at reduced sizes and budgets.
type figure func(sc eval.Scenario, quick bool, emit emitFunc) error

// emitFunc prints a runner's table, or returns its error.
type emitFunc func(*eval.Table, error) error

// order is the sequence -fig all prints.
var order = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "tab2", "abl", "part", "adapt", "phases"}

var figures = map[string]figure{
	"1": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		// The exact search is budgeted (PuLP-replacement B&B with subset
		// width 8); the table says whether the reference is proven optimal.
		sc.OptimalBudget = pick(quick, 4000, 500)
		side := pick(quick, 6, 4)
		return emit(eval.RunFig1(side, side, sc))
	},
	"2": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		if err := emit(eval.RunFig2Small(pick(quick, []int{3, 4, 5}, []int{3, 4}), sc)); err != nil {
			return err
		}
		return emit(eval.RunFig2Large(pick(quick, []int{10, 12, 14, 16}, []int{8}), sc))
	},
	"3": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		return emit(eval.RunFig3(6, 6, pick(quick, 5, 3), sc))
	},
	"4": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		return emit(eval.RunFig4(pick(quick, []int{20, 60, 100, 140, 180}, []int{20, 40}), sc))
	},
	"5": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		return emit(eval.RunFig5(pick(quick, []int{4, 6, 8, 10, 12}, []int{4, 6}), sc))
	},
	"6": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		return emit(eval.RunFig6(6, 6, sc))
	},
	"7": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		if err := emit(eval.RunFig7Grid(pick(quick, []int{4, 6, 8, 10}, []int{4, 6}), sc)); err != nil {
			return err
		}
		return emit(eval.RunFig7Random(pick(quick, []int{20, 60, 100, 140, 180}, []int{20, 40}), sc))
	},
	"8": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		for _, side := range []int{4, 8} {
			if err := emit(eval.RunFig8(side, side, pick(quick, 10, 6), sc)); err != nil {
				return err
			}
		}
		return nil
	},
	"9": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		for _, side := range []int{4, 6} {
			if err := emit(eval.RunFig9(side, side, 10, sc)); err != nil {
				return err
			}
		}
		return nil
	},
	"tab2": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		return emit(eval.RunTable2(6, 6, sc))
	},
	"abl": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		return emit(eval.RunAblations(sc))
	},
	"part": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		cases, err := eval.DefaultPartitionedCases()
		if err != nil {
			return err
		}
		return emit(eval.RunPartitioned(cases[:pick(quick, len(cases), 1)], sc))
	},
	"adapt": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		if quick {
			return emit(eval.RunAdaptive(eval.AdaptiveScenario{Rows: 9, Cols: 9, Chunks: 48, Requests: 100_000, AdaptEvery: 5_000}))
		}
		return emit(eval.RunAdaptive(eval.AdaptiveScenario{}))
	},
	"phases": func(sc eval.Scenario, quick bool, emit emitFunc) error {
		side := pick(quick, 6, 4)
		return emit(eval.RunPhases(side, side, sc))
	},
}

// run prints the tables of one figure, or of all of them in order.
func run(fig string, quick bool) error {
	keys := order
	if fig != "all" {
		if _, ok := figures[fig]; !ok {
			return fmt.Errorf("unknown figure %q", fig)
		}
		keys = []string{fig}
	}
	emit := func(t *eval.Table, err error) error {
		if err == nil {
			t.Print(os.Stdout)
		}
		return err
	}
	for _, key := range keys {
		if err := figures[key](scenario(quick), quick, emit); err != nil {
			return fmt.Errorf("fig %s: %w", key, err)
		}
	}
	return nil
}

// scenario returns the paper's defaults, with a budgeted optimal search
// (the pure-Go exact solver replaces PuLP; budgets keep it tractable and
// the proven/best-found distinction is printed).
func scenario(quick bool) eval.Scenario {
	sc := eval.DefaultScenario()
	sc.OptimalBudget = pick(quick, 20000, 1000)
	sc.OptimalWidth = 8
	if quick {
		sc.Seeds = []int64{1, 2}
	}
	return sc
}

// pick returns full, or q under -quick.
func pick[T any](quick bool, full, q T) T {
	if quick {
		return q
	}
	return full
}
