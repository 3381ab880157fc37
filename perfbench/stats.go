package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailLadder is the set of percentiles a _tail metric may report.
var tailLadder = []float64{50, 75, 80, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.99}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten samples beyond it among n samples, or 0 when n is too small
// for any of them.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// latencySet collects one operation class's latencies. A failed request
// is recorded as +Inf, so it misses every latency limit.
type latencySet struct {
	mu     sync.Mutex
	ms     []float64
	failed int
}

func (l *latencySet) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

func (l *latencySet) fail() {
	l.mu.Lock()
	l.ms = append(l.ms, math.Inf(1))
	l.failed++
	l.mu.Unlock()
}

// summary is the median and tail of a latency set.
type summary struct {
	N      int
	Failed int
	P50    float64
	TailP  float64
	Tail   float64
	MeanMs float64
}

func (l *latencySet) summarize() summary {
	l.mu.Lock()
	sorted := slices.Clone(l.ms)
	failed := l.failed
	l.mu.Unlock()
	sort.Float64s(sorted)
	s := summary{N: len(sorted), Failed: failed}
	if len(sorted) == 0 {
		return s
	}
	s.P50 = percentile(sorted, 50)
	s.TailP = tailPercentile(len(sorted))
	if s.TailP > 0 {
		s.Tail = percentile(sorted, s.TailP)
	}
	sum, n := 0.0, 0
	for _, v := range sorted {
		if !math.IsInf(v, 1) {
			sum += v
			n++
		}
	}
	if n > 0 {
		s.MeanMs = sum / float64(n)
	}
	return s
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d failed=%d p50=%.3fms p%g=%.3fms mean=%.3fms", s.N, s.Failed, s.P50, s.TailP, s.Tail, s.MeanMs)
}

// windowed summarizes latencies split into windows of the run: the
// median over the windows of each window's p50 and of each window's tail,
// at the per-window sample count. On a shared VM a few slow bursts
// otherwise set a whole run's figures.
func windowed(sets []*latencySet) summary {
	var p50s, tails []float64
	out := summary{}
	for _, ls := range sets {
		ws := ls.summarize()
		p50s = append(p50s, ws.P50)
		tails = append(tails, ws.Tail)
		out.N += ws.N
		out.Failed += ws.Failed
		out.TailP = ws.TailP
	}
	out.P50, out.Tail = median(p50s), median(tails)
	return out
}

// merged joins consecutive groups of k windows into one.
func merged(sets []*latencySet, k int) []*latencySet {
	var out []*latencySet
	for i, ls := range sets {
		if i%k == 0 {
			out = append(out, &latencySet{})
		}
		m := out[len(out)-1]
		m.ms = append(m.ms, ls.ms...)
		m.failed += ls.failed
	}
	return out
}

func (s summary) windows(n int) string {
	return fmt.Sprintf("median over %d windows of each window's p50 %.3f ms and p%g %.3f ms; %d samples, %d a window (%d failed)",
		n, s.P50, s.TailP, s.Tail, s.N, s.N/n, s.Failed)
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one timed interval of the traced run. Parent is the index of
// the enclosing span in the recorder, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// recorder keeps the traced run's spans in memory.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span and returns its index. A nil recorder records
// nothing and returns -1.
func (r *recorder) start(name, req string, parent int) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: t, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// add records an already measured interval.
func (r *recorder) add(name, req string, parent int, start, end int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	return len(r.spans) - 1
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, curA, curB := int64(0), int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// openLoopResult is one scheduled request of an open loop: when it was
// due, when its sender last woke from a timer sleep, when it was sent,
// and how it ended.
type openLoopResult struct {
	Due, Woke, Sent, Done time.Duration
	Err                   error
}

// Start is when the request's latency clock starts: its due time, or the
// moment its sender last woke from a timer sleep if that was later. A
// sender busy with earlier requests past a due time charges that wait to
// the request (one stalled response makes the following requests late);
// a timer that oversleeps is the generator's error and is not charged.
func (r openLoopResult) Start() time.Duration { return max(r.Due, r.Woke) }

// Latency is the request's time from Start to its completion.
func (r openLoopResult) Latency() time.Duration { return r.Done - r.Start() }

// Late is how far behind its schedule the generator sent the request,
// whatever the cause.
func (r openLoopResult) Late() time.Duration { return max(0, r.Sent-r.Due) }

// Waited is the part of Late charged to the system.
func (r openLoopResult) Waited() time.Duration { return max(0, r.Sent-r.Start()) }

// runOpenLoop sends len(due) requests with at most senders in flight.
// Request i is sent at due[i] after the start, or as soon as a sender is
// free when the loop is behind. send performs request i; waited is the
// time it has already been charged for waiting on a busy sender.
func runOpenLoop(ctx context.Context, due []time.Duration, senders int, send func(ctx context.Context, i int, waited time.Duration) error) []openLoopResult {
	out := make([]openLoopResult, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var woke time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				now := time.Since(start)
				if wait := due[i] - now; wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
					now = time.Since(start)
					woke = now
				}
				res := openLoopResult{Due: due[i], Woke: woke, Sent: now}
				if err := ctx.Err(); err != nil {
					res.Err = err
				} else {
					res.Err = send(ctx, i, res.Waited())
				}
				res.Done = time.Since(start)
				out[i] = res
			}
		}()
	}
	wg.Wait()
	return out
}
