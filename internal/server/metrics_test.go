package server

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// parseScrape decodes a Prometheus text exposition into samples and
// family types, failing the test on any malformed line.
func parseScrape(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndex(line, " ")
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("sample %q has unparseable value: %v", line, err)
		}
		samples[line[:idx]] = v
	}
	return samples, types
}

// scrape fetches GET /metrics and returns its samples keyed by
// "name{labels}".
func (c *testClient) scrape() map[string]float64 {
	c.t.Helper()
	resp, raw := c.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	samples, _ := parseScrape(c.t, string(raw))
	return samples
}

// familySum totals one family's samples across every label set.
func familySum(samples map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// TestMetricsEndpoint drives traffic, scrapes /metrics and checks the
// exposition is well-formed Prometheus text: declared types, sorted
// families, and internally consistent histograms (cumulative buckets,
// +Inf == _count).
func TestMetricsEndpoint(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	var solve SolveResponse
	// An explain solve also feeds the trace-fed phase histogram.
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 3, Options: &SolveOptions{Explain: true}}, &solve, http.StatusOK)
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, new(PublishResponse), http.StatusOK)
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	// One failing request moves the error counter.
	c.wantError("GET", "/v1/topologies/"+reg.ID+"/lookup?chunk=99&node=0", nil, http.StatusNotFound, CodeNotFound)

	resp, raw := c.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text 0.0.4", ct)
	}
	text := string(raw)
	samples, types := parseScrape(t, text)

	// The core families exist with their declared kinds.
	wantTypes := map[string]string{
		"faircached_requests_total":           "counter",
		"faircached_request_errors_total":     "counter",
		"faircached_request_duration_seconds": "histogram",
		"faircached_solve_duration_seconds":   "histogram",
		"faircached_topologies":               "gauge",
		"faircached_worker_queue_depth":       "gauge",
		"faircached_costmodel_cold_builds":    "gauge",
		"faircached_wal_fsync_lag_seconds":    "gauge",
		"faircached_wal_recovery_seconds":     "gauge",
		"faircached_uptime_seconds":           "gauge",
		"faircached_demand_events_total":      "counter",
		"faircached_solve_phase_seconds":      "histogram",
		"faircached_adapt_passes_total":       "counter",
		"faircached_adapt_actions_total":      "counter",
		"faircached_publications_total":       "counter",
		"faircached_expired_chunks_total":     "counter",
		"faircached_demand_local_hits_total":  "counter",
		"faircached_demand_misses_total":      "counter",
		"faircached_wal_append_errors_total":  "counter",
		"faircached_wal_snapshots_total":      "counter",
	}
	for name, kind := range wantTypes {
		if types[name] != kind {
			t.Errorf("family %s has type %q, want %q", name, types[name], kind)
		}
	}

	// Spot-check the counters this test moved.
	checks := map[string]float64{
		`faircached_requests_total{endpoint="solve"}`:        1,
		`faircached_requests_total{endpoint="get"}`:          1,
		`faircached_request_errors_total{endpoint="lookup"}`: 1,
		"faircached_topologies":                              1,
		"faircached_solve_duration_seconds_count":            1,
		"faircached_publications_total":                      1,
	}
	for sample, want := range checks {
		if got := samples[sample]; got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}

	// Histogram invariants: buckets are cumulative and non-decreasing,
	// the +Inf bucket equals _count, and an observed histogram has a
	// consistent _sum.
	for name, kind := range types {
		if kind != "histogram" {
			continue
		}
		checkServerHistogram(t, name, samples)
	}

	// Families are emitted in sorted order.
	var order []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			order = append(order, strings.Fields(line)[2])
		}
	}
	if !slices.IsSorted(order) {
		t.Errorf("metric families not sorted: %v", order)
	}
}

// checkServerHistogram asserts a histogram family's bucket/count/sum
// invariants from a parsed scrape, one series at a time (the le label
// always renders last, after any family labels).
func checkServerHistogram(t *testing.T, name string, samples map[string]float64) {
	t.Helper()
	type bucket struct {
		le string
		v  float64
	}
	series := map[string][]bucket{} // non-le label string -> buckets
	for sample, v := range samples {
		if !strings.HasPrefix(sample, name+"_bucket{") {
			continue
		}
		inside := strings.TrimSuffix(strings.TrimPrefix(sample, name+"_bucket{"), "}")
		idx := strings.Index(inside, `le="`)
		if idx < 0 {
			t.Errorf("bucket sample %q has no le label", sample)
			continue
		}
		labels := strings.TrimSuffix(inside[:idx], ",")
		le := strings.TrimSuffix(inside[idx+len(`le="`):], `"`)
		series[labels] = append(series[labels], bucket{le, v})
	}
	if len(series) == 0 {
		t.Errorf("histogram %s has no buckets", name)
		return
	}
	for labels, buckets := range series {
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		slices.SortFunc(buckets, func(a, b bucket) int {
			return cmp.Compare(leValue(t, a.le), leValue(t, b.le))
		})
		prev := -1.0
		for _, b := range buckets {
			if b.v < prev {
				t.Errorf("%s%s bucket le=%s = %v < previous %v: buckets must be cumulative", name, suffix, b.le, b.v, prev)
			}
			prev = b.v
		}
		count, sum := samples[name+"_count"+suffix], samples[name+"_sum"+suffix]
		if last := buckets[len(buckets)-1]; last.le != "+Inf" {
			t.Errorf("%s%s last bucket is le=%q, want +Inf", name, suffix, last.le)
		} else if last.v != count {
			t.Errorf("%s%s +Inf bucket %v != _count %v", name, suffix, last.v, count)
		}
		if count > 0 && sum < 0 {
			t.Errorf("%s%s has %v observations but negative sum %v", name, suffix, count, sum)
		}
		if count == 0 && sum != 0 {
			t.Errorf("%s%s has no observations but sum %v", name, suffix, sum)
		}
	}
}

func leValue(t *testing.T, le string) float64 {
	t.Helper()
	if le == "+Inf" {
		return float64(1 << 62)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bad le %q: %v", le, err)
	}
	return v
}

// TestMetricsQueueDepthGauge checks the worker-queue gauge reflects a
// parked worker with queued mutations.
func TestMetricsQueueDepthGauge(t *testing.T) {
	c, s := newTestClient(t, Options{})
	reg := c.registerGrid(3, 3, 4)
	release := blockWorker(t, s, reg.ID)
	defer release()

	resp, raw := c.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	samples, _ := parseScrape(t, string(raw))
	if got := samples["faircached_worker_queue_depth"]; got < 1 {
		t.Errorf("worker queue depth = %v with a parked worker, want >= 1", got)
	}
}

// TestMetricsLabelEscaping checks a label value needing escaping
// round-trips; endpoint labels are static today, so this guards the
// exporter contract via a quoted error message in a scrape.
func TestMetricsLabelEscaping(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	// A request to an instrumented endpoint with an error keeps the
	// scrape parseable.
	c.wantError("GET", "/v1/topologies/nope", nil, http.StatusNotFound, CodeNotFound)
	resp, raw := c.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	parseScrape(t, string(raw)) // fails the test on any malformed line
	if !strings.Contains(string(raw), fmt.Sprintf("faircached_request_errors_total{endpoint=%q} 1", "get")) {
		t.Errorf("scrape missing get-endpoint error count:\n%s", raw)
	}
}
