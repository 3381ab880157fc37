package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

func startService(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	producer := 5
	body, _ := json.Marshal(server.RegisterRequest{
		Kind: "grid", Rows: 4, Cols: 4, Producer: &producer, Capacity: 4,
	})
	resp, err := http.Post(ts.URL+"/v1/topologies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	defer resp.Body.Close()
	var reg server.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatalf("register decode: %v", err)
	}
	return ts, reg.ID
}

// readCounters samples the request, publication and lookup counters
// from the service's /metrics exposition through client.Metrics.
func readCounters(t *testing.T, baseURL string) map[string]int64 {
	t.Helper()
	text, err := client.New(baseURL).Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		idx := strings.LastIndex(line, " ")
		if idx < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:idx]
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("metrics sample %q: %v", line, err)
		}
		switch {
		case strings.HasPrefix(name, "faircached_requests_total{"):
			out["requests"] += int64(v)
			if name == `faircached_requests_total{endpoint="lookup"}` {
				out["lookups"] = int64(v)
			}
		case name == "faircached_publications_total":
			out["publications"] = int64(v)
		}
	}
	return out
}

// TestThroughputSmoke runs the load generator against a live service and
// asserts (a) the workload mostly succeeds with nonzero throughput and
// (b) the request/publication/lookup counters on /metrics increase
// monotonically across samples taken before, during and after the run.
func TestThroughputSmoke(t *testing.T) {
	ts, id := startService(t)

	keys := []string{"requests", "publications", "lookups"}
	samples := []map[string]int64{readCounters(t, ts.URL)}

	done := make(chan struct{})
	var stats *Stats
	var runErr error
	go func() {
		defer close(done)
		stats, runErr = Run(context.Background(), Config{
			BaseURL:    ts.URL,
			TopologyID: id,
			Workers:    4,
			Requests:   120,
		})
	}()
	// Sample counters while the generator is running.
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		samples = append(samples, readCounters(t, ts.URL))
	}
	<-done
	if runErr != nil {
		t.Fatalf("loadgen: %v", runErr)
	}
	samples = append(samples, readCounters(t, ts.URL))

	if stats.Total() == 0 || stats.Throughput() <= 0 {
		t.Fatalf("no successful operations: %+v", stats)
	}
	if stats.Publishes == 0 || stats.Lookups == 0 {
		t.Fatalf("workload mix degenerate: %+v", stats)
	}
	if stats.Errors > stats.Total()/10 {
		t.Fatalf("error rate too high: %+v", stats)
	}

	for _, key := range keys {
		for i := 1; i < len(samples); i++ {
			if samples[i][key] < samples[i-1][key] {
				t.Errorf("counter %s decreased between samples %d and %d: %d -> %d",
					key, i-1, i, samples[i-1][key], samples[i][key])
			}
		}
		first, last := samples[0][key], samples[len(samples)-1][key]
		if last <= first {
			t.Errorf("counter %s did not increase across the run: %d -> %d", key, first, last)
		}
	}
	t.Logf("loadgen: %d ops in %v (%.0f ops/s), %d publishes, %d lookups, %d errors",
		stats.Total(), stats.Elapsed.Round(time.Millisecond), stats.Throughput(),
		stats.Publishes, stats.Lookups, stats.Errors)
}

// TestRunValidation covers the generator's own input checks.
func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("Run with empty config should fail")
	}
	ts, _ := startService(t)
	if _, err := Run(context.Background(), Config{BaseURL: ts.URL, TopologyID: "nope"}); err == nil {
		t.Fatal("Run against unknown topology should fail on the initial report")
	}
}

// TestRunCancel stops the generator early without error.
func TestRunCancel(t *testing.T) {
	ts, id := startService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := Run(ctx, Config{BaseURL: ts.URL, TopologyID: id, Requests: 1000})
	if err != nil {
		// The initial report may race the cancel; either outcome is fine
		// as long as a started run stops promptly.
		return
	}
	if stats.Total() > 1000 {
		t.Fatalf("cancelled run did too much work: %+v", stats)
	}
}
