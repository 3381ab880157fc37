// Package prom is a dependency-free Prometheus text-format exporter for
// the faircached daemon: counters and fixed-bucket histograms, optionally
// labelled, and gauge funcs read at render time, rendered in the
// Prometheus exposition format (text version 0.0.4) by a Registry that
// doubles as an http.Handler.
//
// It deliberately implements only what a scrape target needs — atomic
// instruments and deterministic rendering — not the full client_golang
// surface. All instruments are safe for concurrent use; Observe/Add/Inc
// are lock-free on the hot path.
package prom

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic add/load via bit-casting CAS.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.v.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	upper  []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Find the first bucket whose upper bound is >= v.
	i, _ := slices.BinarySearch(h.upper, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// DefBuckets are the default latency buckets in seconds, spanning
// sub-millisecond lookups to multi-second solves.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// kind is the TYPE line of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// family is one named metric family with zero or more labelled children.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string // label names for vec families; empty for scalars

	mu       sync.Mutex
	children map[string]*child // keyed by canonical label-value tuple
	order    []string          // insertion order of child keys

	gaugeFn func() float64 // kindGauge families read it at render time
	buckets []float64      // kindHistogram bucket bounds
}

type child struct {
	labelValues []string
	counter     *Counter
	hist        *Histogram
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameOK = func(r rune) bool {
	return r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
}

func (r *Registry) register(name, help string, k kind, labels []string) *family {
	if name == "" {
		panic("prom: empty metric name")
	}
	for i, c := range name {
		if !nameOK(c) || (i == 0 && c >= '0' && c <= '9') {
			panic(fmt.Sprintf("prom: invalid metric name %q", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("prom: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, kind: k, labels: labels, children: make(map[string]*child)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers and returns an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	c := &child{counter: &Counter{}}
	f.children[""] = c
	f.order = append(f.order, "")
	return c.counter
}

// GaugeFunc registers a gauge whose value is read from fn at render
// time — for values the owner already tracks (queue depths, lag).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil)
	f.gaugeFn = fn
}

// Histogram registers and returns an unlabelled fixed-bucket histogram.
// Buckets must be sorted ascending; nil uses DefBuckets. The implicit
// +Inf bucket is always appended.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil)
	f.buckets = checkBuckets(buckets)
	c := &child{hist: newHistogram(f.buckets)}
	f.children[""] = c
	f.order = append(f.order, "")
	return c.hist
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic("prom: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labelNames)}
}

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(labelNames) == 0 {
		panic("prom: HistogramVec needs at least one label")
	}
	f := r.register(name, help, kindHistogram, labelNames)
	f.buckets = checkBuckets(buckets)
	return &HistogramVec{f: f}
}

func checkBuckets(buckets []float64) []float64 {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("prom: buckets not strictly ascending at %d: %v", i, buckets))
		}
	}
	return buckets
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets))}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// WithLabelValues returns (creating on first use) the child counter for
// the given label values, which must match the label-name count.
func (v *CounterVec) WithLabelValues(values ...string) *Counter {
	return v.f.child(values).counter
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// WithLabelValues returns (creating on first use) the child histogram.
func (v *HistogramVec) WithLabelValues(values ...string) *Histogram {
	return v.f.child(values).hist
}

// child resolves a label-value tuple to its child, creating it on first
// use.
func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("prom: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		switch f.kind {
		case kindCounter:
			c.counter = &Counter{}
		case kindHistogram:
			c.hist = newHistogram(f.buckets)
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// ServeHTTP renders the registry in the Prometheus text format.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	r.Write(&b)
	_, _ = w.Write([]byte(b.String()))
}

// Write renders every family, sorted by name, children in creation
// order. The output is a valid Prometheus exposition.
func (r *Registry) Write(b *strings.Builder) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b *family) int { return cmp.Compare(a.name, b.name) })
	for _, f := range fams {
		f.write(b)
	}
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.gaugeFn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		return
	}
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	for _, c := range children {
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, c.labelValues, "", 0), formatFloat(c.counter.Value()))
		case kindHistogram:
			h := c.hist
			cum := uint64(0)
			for i, ub := range h.upper {
				cum += h.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelValues, "le", ub), cum)
			}
			// +Inf bucket == total count by construction.
			count := h.count.Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labelValues, "le", math.Inf(1)), count)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelValues, "", 0), formatFloat(h.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelValues, "", 0), count)
		}
	}
}

// labelString renders {k="v",...}; leName non-empty appends the le
// bucket label. Returns "" when there are no labels at all.
func labelString(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
