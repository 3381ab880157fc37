package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// TestSolveBurstCollapses fires a burst of identical solves from
// concurrent clients, the traffic shape request coalescing exists for,
// and checks the burst collapses onto at least 5x fewer underlying solve
// computations, counted from the committed-solve delta between a report
// before and after it. It is an external test package because client
// imports server; run it with -race so the detector watches the
// singleflight group the whole time.
func TestSolveBurstCollapses(t *testing.T) {
	const (
		requests    = 200
		workers     = 16
		minCollapse = 5
	)
	srv, err := server.New(server.Options{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	// One keep-alive connection per worker: the default transport keeps
	// only 2 idle connections per host, and the redials stagger request
	// arrivals enough to break up the very bursts this test creates.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = workers
	transport.MaxIdleConnsPerHost = workers
	defer transport.CloseIdleConnections()
	cl := client.New(ts.URL, client.WithHTTPClient(&http.Client{Timeout: 30 * time.Second, Transport: transport}))

	ctx := context.Background()
	reg, err := cl.Register(ctx, &server.RegisterRequest{Kind: "grid", Rows: 10, Cols: 10})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	before, err := cl.Report(ctx, reg.ID)
	if err != nil {
		t.Fatalf("report before the burst: %v", err)
	}

	req := &server.SolveRequest{Chunks: 20, Options: &server.SolveOptions{Algorithm: "appx"}}
	var (
		next, coalesced atomic.Int64
		wg              sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= requests {
				resp, err := cl.Solve(ctx, reg.ID, req)
				if err != nil {
					t.Errorf("solve: %v", err)
					return
				}
				if resp.Coalesced {
					coalesced.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := cl.Report(ctx, reg.ID)
	if err != nil {
		t.Fatalf("report after the burst: %v", err)
	}
	solves := after.Snapshot.Solves - before.Snapshot.Solves
	t.Logf("burst: %d requests in %v (%.0f req/s), %d underlying solves, %d coalesced (hit rate %.1f%%)",
		requests, elapsed.Round(time.Millisecond), requests/elapsed.Seconds(),
		solves, coalesced.Load(), 100*float64(coalesced.Load())/requests)
	if solves == 0 || requests/solves < minCollapse {
		t.Errorf("burst ran %d underlying solves for %d requests, want >= %dx collapse", solves, requests, minCollapse)
	}
}
