// Package trace is a dependency-free, allocation-disciplined span tracer
// for the solve pipeline. A Tracer owns a fixed-capacity ring buffer of
// finished spans and a head-sampling knob; each traced request gets a
// Trace handle whose spans record into the ring (and, for explain
// requests, into a per-request collection that summaries are built from).
// Every layer a request passes through records into the one Trace its
// context carries, so one sampling decision covers all of them. A caller
// with no Tracer that wants one request's summary uses Collect, whose
// spans reach no ring.
//
// The design point is "free when off": a nil *Trace is the disabled
// state, every method on the zero Span and the nil Trace is a no-op, and
// Span is a value type with a fixed-size attribute array, so threading
// spans through the per-chunk solve loop adds zero heap allocations when
// tracing is disabled and only the ring-slot copy when sampled. The ring
// itself is allocated on the first recorded span, so a Tracer that never
// records costs no ring.
package trace

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxAttrs is the per-span attribute capacity. Attributes past the cap
// are dropped silently; solve phases annotate at most a handful of
// counters each.
const MaxAttrs = 6

// DefaultCapacity is the ring size used when New is given a
// non-positive capacity.
const DefaultCapacity = 2048

// Attr is one integer annotation on a span (tick counts, admitted
// facilities, cost-matrix sweeps, byte sizes — the pipeline's counters are
// all integral).
type Attr struct {
	Key string
	Val int64
}

// Record is one finished span as stored in the ring: identifiers, name,
// and start/end offsets on the process's monotonic trace epoch.
type Record struct {
	TraceID string
	SpanID  uint64
	Parent  uint64
	Name    string
	Start   time.Duration // offset from the trace epoch, monotonic
	End     time.Duration
	Attrs   [MaxAttrs]Attr
	NAttrs  uint8
}

// Duration is the span's elapsed time.
func (r *Record) Duration() time.Duration { return r.End - r.Start }

// AttrMap copies the span's attributes into a fresh map (dump/summary
// paths only; allocates).
func (r *Record) AttrMap() map[string]int64 {
	if r.NAttrs == 0 {
		return nil
	}
	m := make(map[string]int64, r.NAttrs)
	for i := uint8(0); i < r.NAttrs; i++ {
		m[r.Attrs[i].Key] = r.Attrs[i].Val
	}
	return m
}

// epoch is the wall-clock instant every record's offsets count from, and
// ids the process-wide sequence of span ids and generated trace ids.
var (
	epoch = time.Now()
	ids   atomic.Uint64
)

// localID generates a trace id for a trace started without one.
func localID() string { return "local-" + strconv.FormatUint(ids.Add(1), 16) }

// Tracer owns the span ring and sampling state. One Tracer serves one
// server; all methods are safe for concurrent use. The observer, when set,
// must be installed before concurrent use begins.
type Tracer struct {
	every atomic.Int64  // sample 1 in N traces; 0 = off
	ctr   atomic.Uint64 // head-sampling counter

	obs func(*Record) // optional span observer (metrics export)

	mu       sync.Mutex
	capacity int
	ring     []Record // allocated by the first record
	n        uint64   // total records ever written
}

// New builds a Tracer whose ring holds capacity records (DefaultCapacity
// when non-positive), with sampling off. The ring is allocated by the
// first recorded span, not here.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity}
}

// SetSampling records 1 in every traces (1 = all, 0 or negative = off).
func (t *Tracer) SetSampling(every int) {
	if t == nil {
		return
	}
	if every < 0 {
		every = 0
	}
	t.every.Store(int64(every))
}

// Sampling returns the current 1-in-N knob (0 = off).
func (t *Tracer) Sampling() int {
	if t == nil {
		return 0
	}
	return int(t.every.Load())
}

// Observe installs fn as the span observer, called once per recorded
// span (sampled or explain traces only — never on the disabled path).
// Install before the Tracer sees concurrent traffic.
func (t *Tracer) Observe(fn func(*Record)) {
	if t == nil {
		return
	}
	t.obs = fn
}

// StartTrace begins a trace for one request. It returns nil — the
// disabled, all-no-op handle — unless the request is explicitly
// collected (collect=true, the explain path) or head sampling picks it.
// An empty id gets a generated one.
func (t *Tracer) StartTrace(id string, collect bool) *Trace {
	if t == nil {
		return nil
	}
	sampled := false
	if every := t.every.Load(); every > 0 {
		sampled = t.ctr.Add(1)%uint64(every) == 0
	}
	if !sampled && !collect {
		return nil
	}
	if id == "" {
		id = localID()
	}
	return &Trace{t: t, id: id, collect: collect}
}

// Collect begins a trace with a generated id that records into its own
// collection only: no ring holds its spans and no observer sees them, so
// one request's phase summary costs no Tracer.
func Collect() *Trace { return &Trace{id: localID(), collect: true} }

func (t *Tracer) record(rec Record) {
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]Record, t.capacity)
	}
	t.ring[t.n%uint64(len(t.ring))] = rec
	t.n++
	t.mu.Unlock()
	if t.obs != nil {
		// Copy in-branch so the common observer-free path keeps rec on
		// the caller's stack.
		o := rec
		t.obs(&o)
	}
}

// Snapshot copies the ring's finished spans, oldest first.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := t.n
	if size > uint64(len(t.ring)) {
		size = uint64(len(t.ring))
	}
	out := make([]Record, 0, size)
	for i := uint64(0); i < size; i++ {
		out = append(out, t.ring[(t.n-size+i)%uint64(len(t.ring))])
	}
	return out
}

// SpanView is a Record projected for export: its start on the wall clock,
// its duration in milliseconds and its attributes as a map. It is the
// shape of the daemon's GET /debug/trace spans.
type SpanView struct {
	TraceID    string           `json:"traceId"`
	SpanID     uint64           `json:"spanId"`
	ParentID   uint64           `json:"parentId,omitempty"`
	Name       string           `json:"name"`
	Start      time.Time        `json:"start"`
	DurationMs float64          `json:"durationMs"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
}

// view projects one record (allocates the attribute map).
func view(r *Record) SpanView {
	return SpanView{
		TraceID:    r.TraceID,
		SpanID:     r.SpanID,
		ParentID:   r.Parent,
		Name:       r.Name,
		Start:      epoch.Add(r.Start),
		DurationMs: float64(r.Duration()) / float64(time.Millisecond),
		Attrs:      r.AttrMap(),
	}
}

// Views projects the ring's finished spans in the order they ended,
// oldest first, keeping only spans at least slowerThan long (0 keeps
// all). The result is never nil.
func (t *Tracer) Views(slowerThan time.Duration) []SpanView {
	recs := t.Snapshot()
	out := make([]SpanView, 0, len(recs))
	for i := range recs {
		if recs[i].Duration() >= slowerThan {
			out = append(out, view(&recs[i]))
		}
	}
	return out
}

// Trace is one sampled (or explain-collected) request's recording
// context. The nil Trace is the disabled state: Start returns a dead
// Span and everything downstream no-ops.
type Trace struct {
	t       *Tracer // the ring its spans land in; nil for Collect
	id      string
	collect bool

	mu   sync.Mutex
	recs []Record
}

// ID returns the trace id ("" on the nil Trace).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Start opens a root span. Safe on the nil Trace (returns a dead Span).
func (tr *Trace) Start(name string) Span {
	if tr == nil {
		return Span{}
	}
	return Span{tr: tr, id: ids.Add(1), name: name, start: time.Since(epoch)}
}

// Collected copies the spans recorded so far for this trace (explain
// traces only; sampled-only traces return nil).
func (tr *Trace) Collected() []Record {
	if tr == nil || !tr.collect {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Record, len(tr.recs))
	copy(out, tr.recs)
	return out
}

// Span is an in-progress operation. It is a value type: attributes live
// in a fixed array on the caller's stack and only End copies the
// finished record into the Tracer's ring. The zero Span (from a nil
// Trace) is dead — every method is a no-op.
type Span struct {
	tr     *Trace
	name   string
	id     uint64
	parent uint64
	start  time.Duration
	attrs  [MaxAttrs]Attr
	n      uint8
}

// Live reports whether the span records anywhere. Use it to skip
// attribute computation that is itself costly.
func (s *Span) Live() bool { return s.tr != nil }

// Child opens a sub-span under s. On a dead span the child is dead too.
func (s *Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	sp := s.tr.Start(name)
	sp.parent = s.id
	return sp
}

// SetInt annotates the span; attributes past MaxAttrs are dropped.
func (s *Span) SetInt(key string, v int64) {
	if s.tr == nil || s.n >= MaxAttrs {
		return
	}
	s.attrs[s.n] = Attr{Key: key, Val: v}
	s.n++
}

// End finishes the span, copying it into the ring (if its trace has one)
// and the per-request collection on explain traces. End is idempotent:
// the second call on the same value is a no-op.
func (s *Span) End() {
	if s.tr == nil {
		return
	}
	tr := s.tr
	s.tr = nil
	rec := Record{
		TraceID: tr.id,
		SpanID:  s.id,
		Parent:  s.parent,
		Name:    s.name,
		Start:   s.start,
		End:     time.Since(epoch),
		Attrs:   s.attrs,
		NAttrs:  s.n,
	}
	if tr.t != nil {
		tr.t.record(rec)
	}
	if tr.collect {
		tr.mu.Lock()
		tr.recs = append(tr.recs, rec)
		tr.mu.Unlock()
	}
}

// PhaseSummary aggregates an explain trace's spans of one name: how many
// ran, their total elapsed time, and their summed integer attributes.
type PhaseSummary struct {
	Phase    string
	Count    int
	Total    time.Duration
	Counters map[string]int64
}

// Summarize groups records by span name in first-appearance order,
// summing durations and attributes.
func Summarize(recs []Record) []PhaseSummary {
	if len(recs) == 0 {
		return nil
	}
	idx := make(map[string]int, 8)
	out := make([]PhaseSummary, 0, 8)
	for i := range recs {
		r := &recs[i]
		j, ok := idx[r.Name]
		if !ok {
			j = len(out)
			idx[r.Name] = j
			out = append(out, PhaseSummary{Phase: r.Name})
		}
		ps := &out[j]
		ps.Count++
		ps.Total += r.Duration()
		for k := uint8(0); k < r.NAttrs; k++ {
			if ps.Counters == nil {
				ps.Counters = make(map[string]int64, MaxAttrs)
			}
			ps.Counters[r.Attrs[k].Key] += r.Attrs[k].Val
		}
	}
	return out
}

type ctxKey struct{}

// NewContext returns ctx carrying tr. A nil tr returns ctx unchanged,
// so the disabled path never allocates a context wrapper.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext extracts the Trace carried by ctx, nil if none. The nil
// result is the usual disabled handle — callers use it directly.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}
