// Command perfbench is faircached's end-to-end benchmark. It runs one
// named workload against an in-process daemon (server.New behind a
// loopback listener, driven through the typed client) at a given seed,
// checks every response, and prints the workload's metrics by name with
// units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones that BENCHMARK.json
// lists, the same names for every workload; the workload's own metrics
// (solve_ms_p50, lookup_ms_p50, hit_rate, ...) are printed on the lines
// before it. With -trace 1 the run is repeated with a span-recording
// wrapper around Server.ServeHTTP and every request's layers are replayed
// through the modules' exported calls, giving the per-layer metrics. -dry
// prints the generated input mix without starting a daemon. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	seed    int64
	seconds int
	trace   bool
	dry     bool
	// dir is a scratch directory for data dirs, removed at exit.
	dir string
	// spansDir receives the traced run's spans.
	spansDir string
}

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount is one operation type's attempted and failed counts. A failed
// response check counts as a failed operation.
type opCount struct {
	attempted, failed int
}

// report is what a workload run returns.
type report struct {
	metrics map[string]metricOut
	ops     map[string]*opCount
	// problems lists failed checks, one line each.
	problems []string
	lines    []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metricOut), ops: make(map[string]*opCount)}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metricOut{Value: v, Unit: unit}
}

func (r *report) op(name string) *opCount {
	c, ok := r.ops[name]
	if !ok {
		c = &opCount{}
		r.ops[name] = c
	}
	return c
}

// fail records a failed check against operation type op.
func (r *report) fail(op, format string, args ...any) {
	r.op(op).failed++
	if len(r.problems) < 50 {
		r.problems = append(r.problems, op+": "+fmt.Sprintf(format, args...))
	}
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// latency sets name_p50 and name_tail from a latency summary and prints
// the tail's percentile and sample count.
func (r *report) latency(name string, s summary) {
	r.set(name+"_p50", s.P50, "ms")
	r.set(name+"_tail", s.Tail, "ms")
	r.logf("%s: p50 %.3f ms, tail = p%g %.3f ms over %d samples (%d failed)", name, s.P50, s.TailP, s.Tail, s.N, s.Failed)
}

// metricDef is one metric of the result line, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd is the result line of every untraced run, whatever the
// workload. Each workload maps them onto its own operations (see
// README.md); they are the figures that stay within their bounds from run
// to run on a shared 2-vCPU VM. The workloads' latencies and rates are
// printed beside them, by the names of the README's tables.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"cpu_us_per_req", "us"},
	{"access_hops", "hops"},
}

// perLayer is the result line of a traced run.
func perLayer() []metricDef {
	var out []metricDef
	for _, d := range layerDefs() {
		out = append(out, metricDef{d.name, d.unit})
	}
	return out
}

// setCPU sets cpu_us_per_req: process CPU time (user and system, daemon
// and load generator together) per request of the timed pass.
func (r *report) setCPU(cpu time.Duration, requests int) {
	v := float64(cpu.Nanoseconds()) / 1e3 / float64(requests)
	r.set("cpu_us_per_req", v, "us")
	r.logf("cpu_us_per_req: %.1f us of process CPU time per request (%.2f s over %d requests)", v, cpu.Seconds(), requests)
}

var workloads = map[string]func(ctx context.Context, cfg config) (*report, error){
	"placement": runPlacement,
	"serve":     runServe,
	"demand":    runDemand,
}

func main() {
	workload := flag.String("workload", "", "workload: placement, serve or demand")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer mode")
	dry := flag.Bool("dry", false, "print the generated input mix and exit")
	buildDir := flag.String("build-dir", ".bench_build", "directory for scratch data")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want placement, serve or demand)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, dry: *dry, dir: dir, spansDir: filepath.Join(*buildDir, "spans")}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	rep, err := run(ctx, cfg)
	cancel()
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.dry {
		for _, l := range rep.lines {
			fmt.Println(l)
		}
		return
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer()
	}
	os.Exit(emit(rep, want))
}

// emit prints the report's lines, every metric, the per-operation counts
// and the final JSON object holding exactly the metrics in want, and
// returns the exit code. A metric of want that the run did not set, or
// set in another unit, is an error: the result line is not printed.
func emit(rep *report, want []metricDef) int {
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	shown := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		shown = append(shown, n)
	}
	sort.Strings(shown)
	for _, n := range shown {
		m := rep.metrics[n]
		fmt.Printf("metric %s %v %s\n", n, m.Value, m.Unit)
	}
	names := make([]string, 0, len(rep.ops))
	for n := range rep.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	attempted, failed := 0, 0
	for _, n := range names {
		c := rep.ops[n]
		fmt.Printf("op %-10s attempted %d failed %d\n", n, c.attempted, c.failed)
		attempted += c.attempted
		failed += c.failed
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(rep.problems) == 0 && failed == 0, attempted, failed, make(map[string]metricOut)}
	for _, d := range want {
		m, ok := rep.metrics[d.name]
		if !ok || m.Unit != d.unit {
			fmt.Fprintf(os.Stderr, "perfbench: the run set no metric %s in %s\n", d.name, d.unit)
			return 1
		}
		// JSON has no infinity: a percentile made of failed requests is
		// printed as the largest finite number.
		if math.IsInf(m.Value, 1) {
			m.Value = math.MaxFloat64
		}
		if math.IsNaN(m.Value) {
			m.Value = 0
		}
		out.Metrics[d.name] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// timedSetups runs setup once for a traced run, and for an untraced one
// at least setupReps times, more while their total stays under
// setupBudget, up to setupMaxReps. It returns the last result plus each
// set-up's duration; every earlier result is closed.
func timedSetups[T interface{ close() }](traced bool, setup func() (T, error)) (T, []float64, error) {
	var last T
	var secs []float64
	total := 0.0
	for i := 0; ; i++ {
		if traced && i == 1 || !traced && i >= setupReps && (total >= setupBudget.Seconds() || i == setupMaxReps) {
			break
		}
		if i > 0 {
			last.close()
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[i]
		last = v
	}
	return last, secs, nil
}

// setupAgain runs and closes n more set-ups after the timed pass and
// returns their durations. With as many set-ups at each end of the run,
// a burst of host load at one end moves at most half of them.
func setupAgain[T interface{ close() }](n int, setup func() (T, error)) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		v.close()
	}
	return secs, nil
}

// An untraced run sets up its daemon several times before its timed pass
// and as many times after it, and reports the median of all as setup_s.
// A set-up of a few tens of milliseconds is repeated until half a second
// has gone, so its median settles.
const (
	setupReps    = 3
	setupMaxReps = 12
	setupBudget  = 500 * time.Millisecond
)

// setSetup sets setup_s to the median of the set-ups before and after the
// timed pass and prints them, with the run's set-up and timed wall times.
func (r *report) setSetup(before, after []float64, setupWall, timedWall time.Duration) {
	all := append(append([]float64(nil), before...), after...)
	m := median(all)
	r.set("setup_s", m, "s")
	r.logf("setup_s runs: %s before the timed pass, %s after (median %.3f s)", fmtSecs(before), fmtSecs(after), m)
	r.logf("wall: set-up %.2f s (%d set-ups), timed %.2f s", setupWall.Seconds(), len(all), timedWall.Seconds())
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// subdir makes a fresh directory under the run's scratch directory.
func (c config) subdir(name string) (string, error) {
	p := filepath.Join(c.dir, name)
	if err := os.RemoveAll(p); err != nil {
		return "", err
	}
	return p, os.MkdirAll(p, 0o755)
}
