package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
)

// layerDef is one per-layer metric of the traced run: its unit, which
// direction is better, the span (or counter) it is computed from, and
// the end-to-end metric it should move, on which workload.
type layerDef struct {
	name, unit, better string
	// span names the replay span whose mean self time this metric is;
	// empty for counters and derived values.
	span string
	// per, when set, divides the span's total self time by this counter's
	// sum instead of by the span count (per-event costs).
	per   string
	moves string
}

var endpoints = []string{"solve", "lookup", "publish", "report", "requests", "adapt"}

// endpointMoves is the end-to-end metric each endpoint's layers should
// move.
var endpointMoves = map[string]string{
	"solve":    "solve_ms_p50, solve_ms_tail on placement",
	"lookup":   "lookup_ms_p50 on serve",
	"publish":  "publish_ms_p50, publish_ms_tail on serve",
	"report":   "lookup_ms_tail on serve",
	"requests": "events_per_s on demand",
	"adapt":    "adapt_ms_p50, adapt_ms_tail on demand",
}

func layerDefs() []layerDef {
	var defs []layerDef
	for _, ep := range endpoints {
		mv := endpointMoves[ep]
		defs = append(defs,
			layerDef{name: "client.wait_us." + ep, unit: "us", better: "lower", moves: mv + " (open-loop wait for a free connection)"},
			layerDef{name: "http.overhead_us." + ep, unit: "us", better: "lower", moves: mv},
			layerDef{name: "server.handler_us." + ep, unit: "us", better: "lower", moves: mv},
			layerDef{name: "server.unattributed_us." + ep, unit: "us", better: "lower", moves: mv},
			layerDef{name: "residual_ms." + ep, unit: "ms", better: "lower", moves: "none: untraced mean minus summed layer self times"},
			layerDef{name: "trace_overhead_ms." + ep, unit: "ms", better: "lower", moves: "none: traced minus untraced mean latency"},
		)
	}
	return append(defs,
		layerDef{name: "server.decode_us", unit: "us", better: "lower", span: "server.decode", moves: "events_per_s on demand; lookup_ms_p50 on serve"},
		layerDef{name: "server.encode_us", unit: "us", better: "lower", span: "server.encode", moves: "events_per_s on demand; lookup_ms_p50 on serve"},
		layerDef{name: "coalesce.hit_ratio", unit: "ratio", better: "higher", moves: "solves_per_s on placement"},
		layerDef{name: "costmodel.fork_ms", unit: "ms", better: "lower", span: "costmodel.fork", moves: "solve_ms_p50, setup_s on placement"},
		layerDef{name: "costmodel.refresh_ms", unit: "ms", better: "lower", span: "costmodel.refresh", moves: "solve_ms_p50 on placement"},
		layerDef{name: "costmodel.cells_repaired", unit: "count", better: "lower", moves: "solve_ms_p50 on placement"},
		layerDef{name: "costmodel.commit_us", unit: "us", better: "lower", span: "costmodel.commit", moves: "solve_ms_p50 on placement"},
		layerDef{name: "costmodel.warm_ratio", unit: "ratio", better: "higher", moves: "solve_ms_p50, setup_s on placement"},
		layerDef{name: "confl.ms", unit: "ms", better: "lower", span: "confl", moves: "solve_ms_p50, solve_ms_tail on placement"},
		layerDef{name: "confl.ticks", unit: "count", better: "lower", moves: "solve_ms_p50 on placement"},
		layerDef{name: "confl.admitted", unit: "count", better: "lower", moves: "solve_ms_p50 on placement"},
		layerDef{name: "steiner.connect_ms", unit: "ms", better: "lower", span: "steiner.connect", moves: "solve_ms_p50, solve_ms_tail on placement"},
		layerDef{name: "steiner.terminals", unit: "count", better: "lower", moves: "solve_ms_p50 on placement"},
		layerDef{name: "steiner.improve_ms", unit: "ms", better: "lower", span: "steiner.improve", moves: "solve_ms_tail on placement"},
		layerDef{name: "partition.solve_ms", unit: "ms", better: "lower", span: "partition.solve", moves: "solve_ms_tail on placement"},
		layerDef{name: "baseline.solve_ms", unit: "ms", better: "lower", span: "baseline.solve", moves: "solve_ms_tail on placement"},
		layerDef{name: "dist.solve_ms", unit: "ms", better: "lower", span: "dist.solve", moves: "solve_ms_tail on placement"},
		layerDef{name: "dist.messages", unit: "count", better: "lower", moves: "solve_ms_tail on placement"},
		layerDef{name: "exact.solve_ms", unit: "ms", better: "lower", span: "exact.solve", moves: "solve_ms_tail on placement"},
		layerDef{name: "exact.proven_ratio", unit: "ratio", better: "higher", moves: "solve_ms_tail on placement"},
		layerDef{name: "metrics.evaluate_ms", unit: "ms", better: "lower", span: "metrics.evaluate", moves: "solve_ms_p50 on placement"},
		layerDef{name: "metrics.report_us", unit: "us", better: "lower", span: "metrics.report", moves: "lookup_ms_tail on serve"},
		layerDef{name: "graph.hop_distances_us", unit: "us", better: "lower", span: "graph.hop_distances", moves: "lookup_ms_p50 on serve"},
		layerDef{name: "online.publish_ms", unit: "ms", better: "lower", span: "online.publish", moves: "publish_ms_p50 on serve"},
		layerDef{name: "online.expired", unit: "count", better: "lower", moves: "publish_ms_p50 on serve"},
		layerDef{name: "online.snapshot_us", unit: "us", better: "lower", span: "online.snapshot", moves: "publish_ms_p50 on serve"},
		layerDef{name: "wal.append_ms", unit: "ms", better: "lower", span: "wal.append", moves: "publish_ms_p50, publish_ms_tail on serve; adapt_ms_p50 on demand"},
		layerDef{name: "wal.daemon_append_ms", unit: "ms", better: "lower", moves: "cross-check of wal.append_ms from faircached_wal_append_duration_seconds"},
		layerDef{name: "wal.record_bytes", unit: "bytes", better: "lower", moves: "publish_ms_p50 on serve; adapt_ms_p50 on demand"},
		layerDef{name: "wal.snapshot_ms", unit: "ms", better: "lower", span: "wal.snapshot", moves: "publish_ms_tail on serve"},
		layerDef{name: "wal.recover_s", unit: "s", better: "lower", span: "wal.recover", moves: "setup_s on serve"},
		layerDef{name: "demand.observe_us", unit: "us", better: "lower", span: "demand.observe", per: "demand.events", moves: "events_per_s on demand"},
		layerDef{name: "demand.adapt_ms", unit: "ms", better: "lower", span: "demand.adapt", moves: "adapt_ms_p50, adapt_ms_tail on demand"},
		layerDef{name: "demand.evicted", unit: "count", better: "lower", moves: "adapt_ms_p50, hit_rate on demand"},
		layerDef{name: "demand.placed", unit: "count", better: "lower", moves: "adapt_ms_p50, hit_rate on demand"},
		layerDef{name: "demand.replaced", unit: "count", better: "lower", moves: "adapt_ms_tail, hit_rate on demand"},
		layerDef{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "every _tail metric, all workloads"},
		layerDef{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "every _tail metric, all workloads"},
	)
}

// unitScale converts nanoseconds to a time unit.
func unitScale(unit string) float64 {
	switch unit {
	case "us":
		return 1e3
	case "ms":
		return 1e6
	case "s":
		return 1e9
	}
	return 1
}

// meanAcc is a running mean of a per-call counter.
type meanAcc struct {
	sum float64
	n   int
}

// tracer is the traced run's state: the span recorder, per-call counters
// from the replay, and directly derived values.
type tracer struct {
	rec     *recorder
	counts  map[string]*meanAcc
	derived map[string]float64
	gc0     gcSample
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), counts: make(map[string]*meanAcc), derived: make(map[string]float64)}
}

// count adds one per-call sample of a counter metric.
func (t *tracer) count(name string, v float64) {
	a, ok := t.counts[name]
	if !ok {
		a = &meanAcc{}
		t.counts[name] = a
	}
	a.sum += v
	a.n++
}

type gcSample struct {
	cycles  uint64
	pauseNs uint64
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var out gcSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.cycles = s[0].Value.Uint64()
	}
	out.pauseNs = ms.PauseTotalNs
	return out
}

// startGC marks the beginning of the traced pass for the GC metrics.
func (t *tracer) startGC() { t.gc0 = readGC() }

// stopGC records the GC work done since startGC.
func (t *tracer) stopGC() {
	g := readGC()
	t.derived["runtime.gc_cycles"] = float64(g.cycles - t.gc0.cycles)
	t.derived["runtime.gc_pause_ms"] = float64(g.pauseNs-t.gc0.pauseNs) / 1e6
}

// finish computes every per-layer metric into rep, prints each with the
// end-to-end metric it should move, prints the residual per operation
// class, and writes the spans to spansPath. untraced and traced hold
// each endpoint's end-to-end latencies from the two passes.
func (t *tracer) finish(rep *report, untraced, traced map[string]summary, spansPath string) error {
	spans := t.rec.snapshot()
	for i := range spans {
		if spans[i].End < 0 {
			return fmt.Errorf("span %s of %s never ended", spans[i].Name, spans[i].Req)
		}
	}
	self := selfTimes(spans)
	vals := make(map[string]float64)
	for k, v := range t.derived {
		vals[k] = v
	}
	for k, a := range t.counts {
		if a.n > 0 {
			vals[k] = a.sum / float64(a.n)
		}
	}

	// Mean self time per span name.
	selfSum := make(map[string]int64)
	selfN := make(map[string]int)
	for i, s := range spans {
		selfSum[s.Name] += self[i]
		selfN[s.Name]++
	}
	for _, d := range layerDefs() {
		if d.span == "" || selfN[d.span] == 0 {
			continue
		}
		div := float64(selfN[d.span])
		if d.per != "" {
			div = t.counts[d.per].sum
		}
		vals[d.name] = float64(selfSum[d.span]) / div / unitScale(d.unit)
	}

	// Per request: client span, handler span and replay root.
	type reqSpans struct {
		endpoint        string
		client, handler int
		replay, wait    int
	}
	byReq := make(map[string]*reqSpans)
	get := func(req string) *reqSpans {
		r, ok := byReq[req]
		if !ok {
			r = &reqSpans{client: -1, handler: -1, replay: -1, wait: -1}
			byReq[req] = r
		}
		return r
	}
	for i, s := range spans {
		if s.Req == "" {
			continue
		}
		switch {
		case s.Name == "client.wait":
			get(s.Req).wait = i
		case strings.HasPrefix(s.Name, "client."):
			r := get(s.Req)
			r.client, r.endpoint = i, strings.TrimPrefix(s.Name, "client.")
		case s.Name == "server.handler":
			get(s.Req).handler = i
		case s.Name == "replay":
			get(s.Req).replay = i
		}
	}
	// Replayed layer durations directly under each replay root, and the
	// self times of every span of the replay trees.
	direct := make(map[int]int64)
	replaySelf := make(map[int]int64)
	root := make([]int, len(spans))
	for i, s := range spans {
		root[i] = -1
		if s.Name == "replay" {
			root[i] = i
		} else if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
		if root[i] >= 0 && root[i] != i {
			replaySelf[root[i]] += self[i]
			if s.Parent == root[i] {
				direct[root[i]] += s.End - s.Start
			}
		}
	}
	type epAcc struct{ wait, overhead, handler, unattr, attributed, n float64 }
	acc := make(map[string]*epAcc)
	for _, r := range byReq {
		if r.client < 0 || r.handler < 0 {
			continue
		}
		a, ok := acc[r.endpoint]
		if !ok {
			a = &epAcc{}
			acc[r.endpoint] = a
		}
		c, h := spans[r.client], spans[r.handler]
		hDur := float64(h.End - h.Start)
		over := float64(c.End-c.Start) - hDur
		un, layers := hDur, 0.0
		if r.replay >= 0 {
			un = hDur - float64(direct[r.replay])
			layers = float64(replaySelf[r.replay])
		}
		wait := 0.0
		if r.wait >= 0 {
			wait = float64(spans[r.wait].End - spans[r.wait].Start)
		}
		a.wait += wait
		a.overhead += over
		a.handler += hDur
		a.unattr += un
		a.attributed += wait + over + un + layers
		a.n++
	}
	for _, ep := range endpoints {
		a, ok := acc[ep]
		if !ok || a.n == 0 {
			continue
		}
		vals["client.wait_us."+ep] = a.wait / a.n / 1e3
		vals["http.overhead_us."+ep] = a.overhead / a.n / 1e3
		vals["server.handler_us."+ep] = a.handler / a.n / 1e3
		vals["server.unattributed_us."+ep] = a.unattr / a.n / 1e3
		u, tr := untraced[ep], traced[ep]
		resid := u.MeanMs - a.attributed/a.n/1e6
		vals["residual_ms."+ep] = resid
		vals["trace_overhead_ms."+ep] = tr.MeanMs - u.MeanMs
		rep.logf("residual %-8s untraced mean %.3f ms (p50 %.3f), traced mean %.3f ms, summed layer self times %.3f ms, residual %+.3f ms (%+.1f%%), tracing overhead %+.3f ms",
			ep, u.MeanMs, u.P50, tr.MeanMs, a.attributed/a.n/1e6, resid, 100*resid/u.MeanMs, tr.MeanMs-u.MeanMs)
	}
	for _, d := range layerDefs() {
		rep.set(d.name, vals[d.name], d.unit)
		rep.logf("layer %-32s %12.4f %-5s should move: %s", d.name, vals[d.name], d.unit, d.moves)
	}
	return writeSpans(spansPath, spans, self)
}

// writeSpans writes the traced run's spans, one JSON object a line.
func writeSpans(path string, spans []span, self []int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	for _, i := range order {
		s := spans[i]
		line := struct {
			ID int `json:"id"`
			span
			SelfNs int64 `json:"selfNs"`
		}{i, s, self[i]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
