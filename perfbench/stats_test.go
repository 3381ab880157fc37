package main

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {145, 90}, {200, 95}, {1000, 99}, {2000, 99.5}, {12000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	ls := &latencySet{}
	for i := 1; i <= 100; i++ {
		ls.add(time.Duration(i) * time.Millisecond)
	}
	s := ls.summarize()
	if s.N != 100 || s.TailP != 90 || s.Tail != 90 || s.P50 != 50 {
		t.Fatalf("summary of 1..100 ms = %+v, want p50 50 and p90 90 over 100", s)
	}
	beyond := 0
	for _, v := range ls.ms {
		if v > s.Tail {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
}

func TestFailedRequestsMissEveryLatencyLimit(t *testing.T) {
	ls := &latencySet{}
	for i := 0; i < 85; i++ {
		ls.add(time.Millisecond)
	}
	for i := 0; i < 15; i++ {
		ls.fail()
	}
	s := ls.summarize()
	if s.Failed != 15 || s.N != 100 {
		t.Fatalf("summary %+v, want 100 samples with 15 failed", s)
	}
	if !math.IsInf(s.Tail, 1) {
		t.Fatalf("p90 with 15%% failed = %v, want +Inf (a miss)", s.Tail)
	}
	if s.P50 != 1 {
		t.Fatalf("p50 = %v, want 1 ms", s.P50)
	}
	for i := 0; i < 80; i++ {
		ls.fail()
	}
	if s := ls.summarize(); !math.IsInf(s.P50, 1) {
		t.Fatalf("p50 with most requests failed = %v, want +Inf", s.P50)
	}
}

func TestOpenLoopStallMakesLaterRequestsLate(t *testing.T) {
	const stall = 40 * time.Millisecond
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	res := runOpenLoop(context.Background(), due, 1, func(_ context.Context, i int, _ time.Duration) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, r := range res[1:] {
		k := i + 1
		// Request k was due 2k ms in but could not be sent before the
		// stalled request 0 returned at 40 ms.
		if min := stall - due[k]; r.Late() < min || r.Waited() < min || r.Latency() < min {
			t.Errorf("request %d: late %v, waited %v, latency %v; want all at least %v", k, r.Late(), r.Waited(), r.Latency(), min)
		}
		if r.Latency() < r.Done-r.Sent {
			t.Errorf("request %d: latency %v shorter than its service time %v", k, r.Latency(), r.Done-r.Sent)
		}
	}

	// Without the stall, nothing waits long, and a timer that wakes the
	// sender late is not charged to the request: one sent as its sender
	// wakes is charged nothing, however late it went out. (A request that
	// fell due while its sender was still busy with the one before is
	// charged that busy time, if only the microseconds of bookkeeping.)
	res = runOpenLoop(context.Background(), due, 1, func(context.Context, int, time.Duration) error { return nil })
	slept := 0
	for i, r := range res {
		if r.Late() > 20*time.Millisecond {
			t.Errorf("unstalled request %d late by %v", i, r.Late())
		}
		if r.Sent == r.Woke {
			slept++
			if r.Waited() != 0 {
				t.Errorf("unstalled request %d, sent %v late as its sender woke, charged %v", i, r.Late(), r.Waited())
			}
		}
	}
	if slept == 0 {
		t.Error("no request was sent after a timer sleep")
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},
		{Name: "a.1", Parent: 1, Start: 15, End: 25},
		{Name: "other", Parent: -1, Start: 0, End: 7},
	}
	got := selfTimes(spans)
	// root: 100 minus [10,50] and [90,100]; c is clipped to its parent.
	want := []int64{50, 10, 30, 30, 10, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder()
	root := r.start("replay", "req-1", -1)
	child := r.start("confl", "req-1", root)
	time.Sleep(time.Millisecond)
	r.end(child)
	r.end(root)
	spans := r.snapshot()
	self := selfTimes(spans)
	if spans[child].Parent != root || self[root] >= spans[root].End-spans[root].Start || self[child] <= 0 {
		t.Fatalf("spans %+v self %v: the child's time should not count as the root's", spans, self)
	}
	var nilRec *recorder
	if id := nilRec.start("x", "", -1); id != -1 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	nilRec.end(-1)
}
