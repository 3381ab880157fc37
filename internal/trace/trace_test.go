package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatalf("nil trace ID = %q, want empty", tr.ID())
	}
	sp := tr.Start("solve")
	if sp.Live() {
		t.Fatal("span from nil trace is live")
	}
	sp.SetInt("x", 1)
	child := sp.Child("phase")
	child.SetInt("y", 2)
	child.End()
	sp.End()
	if got := tr.Collected(); got != nil {
		t.Fatalf("nil trace collected %d records", len(got))
	}

	var tc *Tracer
	if tc.StartTrace("id", true) != nil {
		t.Fatal("nil tracer started a trace")
	}
	tc.SetSampling(1)
	if tc.Sampling() != 0 {
		t.Fatal("nil tracer sampling != 0")
	}
	if tc.Snapshot() != nil {
		t.Fatal("nil tracer snapshot != nil")
	}
}

func TestSamplingKnob(t *testing.T) {
	tc := New(16)
	if got := tc.StartTrace("", false); got != nil {
		t.Fatal("sampling off but StartTrace returned a live trace")
	}
	if got := tc.StartTrace("exp", true); got == nil {
		t.Fatal("collect=true must force a live trace even with sampling off")
	}
	tc.SetSampling(1)
	for i := 0; i < 5; i++ {
		if tc.StartTrace("", false) == nil {
			t.Fatalf("sampling=1 missed trace %d", i)
		}
	}
	tc.SetSampling(3)
	live := 0
	for i := 0; i < 30; i++ {
		if tc.StartTrace("", false) != nil {
			live++
		}
	}
	if live != 10 {
		t.Fatalf("sampling=3 kept %d of 30 traces, want 10", live)
	}
}

func TestRecordingAndSummary(t *testing.T) {
	tc := New(16)
	tr := tc.StartTrace("t1", true)
	root := tr.Start("solve")
	for i := 0; i < 3; i++ {
		c := root.Child("chunk")
		c.SetInt("ticks", int64(10*(i+1)))
		c.End()
	}
	root.SetInt("chunks", 3)
	root.End()
	root.End() // idempotent

	recs := tr.Collected()
	if len(recs) != 4 {
		t.Fatalf("collected %d records, want 4", len(recs))
	}
	for _, r := range recs[:3] {
		if r.Name != "chunk" || r.TraceID != "t1" {
			t.Fatalf("bad child record %+v", r)
		}
		if r.Parent != recs[3].SpanID {
			t.Fatalf("child parent = %d, want root %d", r.Parent, recs[3].SpanID)
		}
		if r.End < r.Start {
			t.Fatalf("record ends before it starts: %+v", r)
		}
	}

	sum := Summarize(recs)
	if len(sum) != 2 {
		t.Fatalf("summary has %d phases, want 2", len(sum))
	}
	if sum[0].Phase != "chunk" || sum[0].Count != 3 || sum[0].Counters["ticks"] != 60 {
		t.Fatalf("chunk summary wrong: %+v", sum[0])
	}
	if sum[1].Phase != "solve" || sum[1].Counters["chunks"] != 3 {
		t.Fatalf("solve summary wrong: %+v", sum[1])
	}

	snap := tc.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring snapshot has %d records, want 4", len(snap))
	}
}

func TestRingWrap(t *testing.T) {
	tc := New(4)
	tr := tc.StartTrace("wrap", true)
	for i := 0; i < 10; i++ {
		sp := tr.Start("s")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	snap := tc.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap))
	}
	for i, r := range snap {
		if want := int64(6 + i); r.Attrs[0].Val != want {
			t.Fatalf("ring[%d] attr = %d, want %d (oldest-first)", i, r.Attrs[0].Val, want)
		}
	}
}

// TestRingAllocatedOnFirstRecord checks New allocates no ring and the
// first recorded span allocates it, so a Tracer that never records (a
// daemon that samples nothing) holds no ring.
func TestRingAllocatedOnFirstRecord(t *testing.T) {
	tc := New(0)
	if tc.ring != nil {
		t.Fatalf("New allocated a %d-record ring", len(tc.ring))
	}
	if got := tc.Views(0); got == nil || len(got) != 0 {
		t.Fatalf("fresh tracer views = %v, want empty and non-nil", got)
	}
	tc.SetSampling(1)
	tr := tc.StartTrace("", false)
	sp := tr.Start("s")
	if tc.ring != nil {
		t.Fatal("starting a trace and a span allocated the ring")
	}
	sp.End()
	if len(tc.ring) != DefaultCapacity {
		t.Fatalf("ring after the first record holds %d slots, want %d", len(tc.ring), DefaultCapacity)
	}
	if got := tc.Views(0); len(got) != 1 || got[0].Name != "s" || got[0].TraceID != tr.ID() {
		t.Fatalf("views after one record = %+v", got)
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	tc := New(4)
	tr := tc.StartTrace("", true)
	sp := tr.Start("s")
	for i := 0; i < MaxAttrs+3; i++ {
		sp.SetInt("k", 1)
	}
	sp.End()
	recs := tr.Collected()
	if recs[0].NAttrs != MaxAttrs {
		t.Fatalf("NAttrs = %d, want %d", recs[0].NAttrs, MaxAttrs)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tc := New(256)
	tr := tc.StartTrace("conc", true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sp := tr.Start("op")
				sp.SetInt("worker", int64(w))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Collected()); got != 160 {
		t.Fatalf("collected %d spans, want 160", got)
	}
	seen := make(map[uint64]bool)
	for _, r := range tr.Collected() {
		if seen[r.SpanID] {
			t.Fatalf("duplicate span id %d", r.SpanID)
		}
		seen[r.SpanID] = true
	}
}

func TestObserver(t *testing.T) {
	tc := New(8)
	var names []string
	tc.Observe(func(r *Record) { names = append(names, r.Name) })
	tr := tc.StartTrace("", true)
	sp := tr.Start("a")
	sp.End()
	sp = tr.Start("b")
	sp.End()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("observer saw %v", names)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context yielded a trace")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("nil trace must not wrap the context")
	}
	tc := New(8)
	tr := tc.StartTrace("ctx", true)
	ctx2 := NewContext(ctx, tr)
	if FromContext(ctx2) != tr {
		t.Fatal("trace did not round-trip through context")
	}
}

func TestDisabledSpanAllocFree(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("solve")
		sp.SetInt("chunks", 8)
		c := sp.Child("chunk")
		c.SetInt("ticks", 41)
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f/op, want 0", allocs)
	}
}

func TestSampledSpanRingOnlyAllocBound(t *testing.T) {
	tc := New(64)
	tc.SetSampling(1)
	tr := tc.StartTrace("hot", false)
	if tr == nil {
		t.Fatal("sampling=1 must trace")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("solve")
		c := sp.Child("chunk")
		c.SetInt("ticks", 41)
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("sampled (non-collect) span path allocates %.1f/op, want 0 (the ring is allocated by the first record, in the warm-up run)", allocs)
	}
}

func TestEpochMonotonic(t *testing.T) {
	tc := New(4)
	if epoch.IsZero() {
		t.Fatal("epoch not set")
	}
	tr := tc.StartTrace("", true)
	sp := tr.Start("s")
	time.Sleep(time.Millisecond)
	sp.End()
	r := tr.Collected()[0]
	if r.Duration() < time.Millisecond/2 {
		t.Fatalf("duration %v too small", r.Duration())
	}
}

// TestCollectKeepsSpansForItsReport checks a Collect trace gets a
// generated id and keeps its spans in its own collection, with no Tracer
// behind it.
func TestCollectKeepsSpansForItsReport(t *testing.T) {
	tr := Collect()
	if !strings.HasPrefix(tr.ID(), "local-") {
		t.Fatalf("Collect id = %q, want a generated local- id", tr.ID())
	}
	root := tr.Start("solve")
	c := root.Child("chunk")
	c.End()
	root.End()
	recs := tr.Collected()
	if len(recs) != 2 || recs[0].Name != "chunk" || recs[1].Name != "solve" || recs[0].Parent != recs[1].SpanID {
		t.Fatalf("collected %+v, want chunk under solve", recs)
	}
}
