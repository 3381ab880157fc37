package prom

import (
	"cmp"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.Write(&b)
	return b.String()
}

func TestCounterRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Total jobs.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic

	out := render(r)
	if want := "# HELP jobs_total Total jobs.\n# TYPE jobs_total counter\njobs_total 3\n"; !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.25
	r.GaugeFunc("lag_seconds", "Lag.", func() float64 { return v })
	if out := render(r); !strings.Contains(out, "lag_seconds 7.25\n") {
		t.Fatalf("missing callback gauge:\n%s", out)
	}
	v = 0
	if out := render(r); !strings.Contains(out, "lag_seconds 0\n") {
		t.Fatalf("callback gauge not re-read:\n%s", out)
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "Requests.", "endpoint", "code")
	v.WithLabelValues("solve", "200").Add(5)
	v.WithLabelValues("solve", "200").Inc() // same child
	v.WithLabelValues("report", "500").Inc()

	out := render(r)
	if !strings.Contains(out, `requests_total{endpoint="solve",code="200"} 6`) {
		t.Errorf("missing solve child:\n%s", out)
	}
	if !strings.Contains(out, `requests_total{endpoint="report",code="500"} 1`) {
		t.Errorf("missing report child:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("weird_total", "Help with \\ and\nnewline.", "l")
	v.WithLabelValues("a\"b\\c\nd").Inc()
	out := render(r)
	if !strings.Contains(out, `# HELP weird_total Help with \\ and\nnewline.`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird_total{l="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

// TestHistogramConsistency pins the exposition-format invariants the
// scrape consumers rely on: cumulative monotonic buckets, +Inf bucket
// equal to _count, and _sum equal to the sum of observations.
func TestHistogramConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	obs := []float64{0.005, 0.005, 0.05, 0.5, 5, 0.09, 1.0}
	var wantSum float64
	for _, v := range obs {
		h.Observe(v)
		wantSum += v
	}
	if h.Count() != uint64(len(obs)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(obs))
	}
	if math.Abs(h.Sum()-wantSum) > 1e-12 {
		t.Fatalf("Sum = %v, want %v", h.Sum(), wantSum)
	}

	sum, count, buckets := parseHistogram(t, render(r), "latency_seconds")
	if count != uint64(len(obs)) {
		t.Fatalf("_count = %d, want %d", count, len(obs))
	}
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Fatalf("_sum = %v, want %v", sum, wantSum)
	}
	checkHistogramInvariants(t, sum, count, buckets)
	// Exact expected cumulative counts for these bounds/observations.
	want := map[string]uint64{"0.01": 2, "0.1": 4, "1": 6, "+Inf": 7}
	for _, b := range buckets {
		if b.count != want[b.le] {
			t.Errorf("bucket le=%s = %d, want %d", b.le, b.count, want[b.le])
		}
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("dur_seconds", "Durations.", nil, "op")
	v.WithLabelValues("solve").Observe(0.002)
	v.WithLabelValues("solve").Observe(0.3)
	v.WithLabelValues("report").Observe(0.0002)
	out := render(r)
	if !strings.Contains(out, `dur_seconds_count{op="solve"} 2`) {
		t.Errorf("missing solve count:\n%s", out)
	}
	if !strings.Contains(out, `dur_seconds_count{op="report"} 1`) {
		t.Errorf("missing report count:\n%s", out)
	}
	if !strings.Contains(out, `dur_seconds_bucket{op="solve",le="+Inf"} 2`) {
		t.Errorf("missing solve +Inf bucket:\n%s", out)
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "Z.")
	r.Counter("aaa_total", "A.")
	out := render(r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body missing metric:\n%s", rec.Body.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("second registration did not panic")
		}
	}()
	r.Counter("dup_total", "second")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "has space", "1leading", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name, "bad")
		}()
	}
}

// TestConcurrentObserve hammers every instrument kind with a hot path
// (counters, histograms, counter vecs) from many goroutines (run under
// -race) and checks totals afterwards.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "C.")
	h := r.Histogram("h_seconds", "H.", nil)
	cv := r.CounterVec("cv_total", "CV.", "w")

	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := fmt.Sprintf("w%d", w%2)
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 1000)
				cv.WithLabelValues(lbl).Inc()
				if i%100 == 0 {
					_ = render(r) // concurrent scrape
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Errorf("counter = %v, want %d", got, workers*each)
	}
	if got := h.Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
	sum, count, buckets := parseHistogram(t, render(r), "h_seconds")
	if count != workers*each {
		t.Errorf("rendered _count = %d, want %d", count, workers*each)
	}
	checkHistogramInvariants(t, sum, count, buckets)
}

type bucket struct {
	le    string
	bound float64
	count uint64
}

// parseHistogram extracts _sum, _count and the bucket series for an
// unlabelled histogram family from rendered output.
func parseHistogram(t *testing.T, out, name string) (sum float64, count uint64, buckets []bucket) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_sum "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+"_sum "), 64)
			if err != nil {
				t.Fatalf("bad _sum line %q: %v", line, err)
			}
			sum = v
		case strings.HasPrefix(line, name+"_count "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, name+"_count "), 10, 64)
			if err != nil {
				t.Fatalf("bad _count line %q: %v", line, err)
			}
			count = v
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			rest := strings.TrimPrefix(line, name+"_bucket{le=\"")
			i := strings.Index(rest, `"`)
			le := rest[:i]
			cstr := strings.TrimSpace(rest[i+2:])
			c, err := strconv.ParseUint(cstr, 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le %q: %v", le, err)
				}
			}
			buckets = append(buckets, bucket{le: le, bound: bound, count: c})
		}
	}
	if len(buckets) == 0 {
		t.Fatalf("no buckets found for %s in:\n%s", name, out)
	}
	return sum, count, buckets
}

// checkHistogramInvariants asserts cumulative monotonicity, bound
// ordering, and +Inf == _count.
func checkHistogramInvariants(t *testing.T, sum float64, count uint64, buckets []bucket) {
	t.Helper()
	if !slices.IsSortedFunc(buckets, func(a, b bucket) int { return cmp.Compare(a.bound, b.bound) }) {
		t.Errorf("bucket bounds not ascending: %+v", buckets)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			t.Errorf("bucket counts not cumulative at %d: %+v", i, buckets)
		}
	}
	last := buckets[len(buckets)-1]
	if last.le != "+Inf" {
		t.Errorf("last bucket le = %q, want +Inf", last.le)
	}
	if last.count != count {
		t.Errorf("+Inf bucket %d != _count %d", last.count, count)
	}
	if count > 0 && sum < 0 {
		t.Errorf("negative sum %v with %d observations", sum, count)
	}
}
