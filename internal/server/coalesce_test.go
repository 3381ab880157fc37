package server

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockWorker parks tp's single-writer worker on a mutation that only
// returns when the returned release func is called. While parked, every
// solve flight queues behind it — which lets a test attach any number
// of concurrent callers to one flight deterministically.
func blockWorker(t *testing.T, s *Server, id string) (release func()) {
	t.Helper()
	tp, terr := s.lookupTopology(id)
	if terr != nil {
		t.Fatalf("lookupTopology(%s): %v", id, terr)
	}
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = tp.do(context.Background(), func(context.Context) (any, error) {
			close(started)
			<-gate
			return nil, nil
		})
	}()
	<-started
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(gate) }); <-done })
	return func() { once.Do(func() { close(gate) }); <-done }
}

// waitSolveFlights polls until the topology's solve group has seen the
// wanted flight and hit totals.
func waitSolveFlights(t *testing.T, s *Server, id string, flights, hits uint64) {
	t.Helper()
	tp, terr := s.lookupTopology(id)
	if terr != nil {
		t.Fatalf("lookupTopology(%s): %v", id, terr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := tp.solveG.Stats()
		if st.Flights == flights && st.Hits == hits {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("solve group never reached flights=%d hits=%d; stats %+v", flights, hits, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolveCoalescing attaches 8 concurrent identical solves to one
// flight and checks exactly one underlying computation ran: one commit,
// one solver invocation, seven coalesced responses.
func TestSolveCoalescing(t *testing.T) {
	c, s := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)

	release := blockWorker(t, s, reg.ID)

	const callers = 8
	req := SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "appx"}}
	responses := make([]SolveResponse, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/solve", "", req, &responses[i], http.StatusOK); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// With the worker parked, all 8 requests pile onto one flight before
	// any computation can start.
	waitSolveFlights(t, s, reg.ID, 1, callers-1)
	release()
	wg.Wait()

	coalesced := 0
	for i, resp := range responses {
		if resp.Version != 2 || resp.Algorithm != "Appx" || len(resp.Holders) != 3 {
			t.Fatalf("response %d = %+v, want committed v2 Appx placement", i, resp)
		}
		if resp.Coalesced {
			coalesced++
		}
	}
	if coalesced != callers-1 {
		t.Errorf("%d responses marked coalesced, want %d", coalesced, callers-1)
	}

	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID+"/report", nil, &rep, http.StatusOK)
	if rep.Snapshot.Solves != 1 {
		t.Errorf("committed solves = %d, want exactly 1 for %d coalesced requests", rep.Snapshot.Solves, callers)
	}
	if total := rep.Solver.ColdBuilds + rep.Solver.WarmSolves + rep.Solver.PartitionedSolves; total != 1 {
		t.Errorf("solver ran %d times (%+v), want exactly 1", total, rep.Solver)
	}
	if rep.Coalesce.Solve.Flights != 1 || rep.Coalesce.Solve.Hits != uint64(callers-1) {
		t.Errorf("report coalesce stats %+v, want 1 flight with %d hits", rep.Coalesce.Solve, callers-1)
	}
}

// TestSolveCoalesceCancelledCaller checks a caller hanging up detaches
// from the flight without aborting it: the surviving caller still gets
// the committed result.
func TestSolveCoalesceCancelledCaller(t *testing.T) {
	c, s := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)

	release := blockWorker(t, s, reg.ID)

	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "POST", c.srv.URL+"/v1/topologies/"+reg.ID+"/solve",
			strings.NewReader(`{"chunks": 3}`))
		_, err := c.srv.Client().Do(req)
		leaderErr <- err
	}()
	// The leader's flight is up; attach a second caller, then hang the
	// leader up.
	waitSolveFlights(t, s, reg.ID, 1, 0)
	var follower SolveResponse
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		if err := c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/solve", "", SolveRequest{Chunks: 3}, &follower, http.StatusOK); err != nil {
			t.Error(err)
		}
	}()
	waitSolveFlights(t, s, reg.ID, 1, 1)
	cancel()
	if err := <-leaderErr; err == nil {
		t.Error("cancelled leader's request returned no error")
	}
	// The server notices the hangup asynchronously; wait for the detach
	// to land before letting the flight finish.
	tp, _ := s.lookupTopology(reg.ID)
	for deadline := time.Now().Add(5 * time.Second); tp.solveG.Stats().Detached == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("leader never detached; stats %+v", tp.solveG.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	release()
	<-followerDone

	if follower.Version != 2 || !follower.Coalesced {
		t.Fatalf("follower response %+v, want coalesced committed v2", follower)
	}
	st := tp.solveG.Stats()
	if st.Detached != 1 || st.Aborted != 0 {
		t.Errorf("stats %+v: cancelled leader should detach without aborting the flight", st)
	}
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID+"/report", nil, &rep, http.StatusOK)
	if rep.Snapshot.Solves != 1 {
		t.Errorf("committed solves = %d, want 1", rep.Snapshot.Solves)
	}
}

// TestSolveCoalesceDistinctRequests checks requests that differ in any
// computation-shaping field never share a flight, while a differing
// timeoutMs (a caller-side knob) still coalesces.
func TestSolveCoalesceDistinctRequests(t *testing.T) {
	c, s := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)

	release := blockWorker(t, s, reg.ID)

	// Same chunks, one with a caller timeout: one flight. Different
	// chunks, algorithm or SPAN quorum: three more flights.
	reqs := []SolveRequest{
		{Chunks: 3},
		{Chunks: 3, TimeoutMs: 60000},
		{Chunks: 4},
		{Chunks: 3, Options: &SolveOptions{Algorithm: "dist"}},
		{Chunks: 3, Options: &SolveOptions{SpanQuorum: 3}},
	}
	var wg sync.WaitGroup
	responses := make([]SolveResponse, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req SolveRequest) {
			defer wg.Done()
			if err := c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/solve", "", req, &responses[i], http.StatusOK); err != nil {
				t.Error(err)
			}
		}(i, req)
	}
	waitSolveFlights(t, s, reg.ID, 4, 1)
	release()
	wg.Wait()

	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID+"/report", nil, &rep, http.StatusOK)
	if rep.Snapshot.Solves != 4 {
		t.Errorf("committed solves = %d, want 4 distinct computations", rep.Snapshot.Solves)
	}
	coalesced := 0
	for _, resp := range responses {
		if resp.Coalesced {
			coalesced++
		}
	}
	if coalesced != 1 {
		t.Errorf("%d coalesced responses, want exactly 1 (the timeoutMs twin)", coalesced)
	}
}

// TestDisableCoalescing checks the opt-out: every request computes
// alone.
func TestDisableCoalescing(t *testing.T) {
	c, _ := newTestClient(t, Options{DisableCoalescing: true})
	reg := c.registerGrid(4, 4, 5)

	const callers = 4
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out SolveResponse
			if err := c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/solve", "", SolveRequest{Chunks: 3}, &out, http.StatusOK); err != nil {
				t.Error(err)
				return
			}
			if out.Coalesced {
				t.Error("response marked coalesced with coalescing disabled")
			}
		}()
	}
	wg.Wait()
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID+"/report", nil, &rep, http.StatusOK)
	if rep.Snapshot.Solves != callers {
		t.Errorf("committed solves = %d, want %d (no coalescing)", rep.Snapshot.Solves, callers)
	}
	if rep.Coalesce.Solve.Flights != 0 || rep.Coalesce.Solve.Hits != 0 {
		t.Errorf("coalesce stats %+v, want untouched group", rep.Coalesce.Solve)
	}
}

// TestReportCoalescing checks a report carries the solve group's dedup
// counters: one flight for the one solve, no hits.
func TestReportCoalescing(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(3, 3, 4)
	var solve SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 2}, &solve, http.StatusOK)

	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID+"/report", nil, &rep, http.StatusOK)
	if rep.Coalesce.Solve.Flights != 1 || rep.Coalesce.Solve.Hits != 0 {
		t.Errorf("report solve counters = %+v, want 1 flight and no hits", rep.Coalesce.Solve)
	}
}
