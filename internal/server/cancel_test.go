package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestAsErrorContextMapping pins the typed-error mapping for the context
// sentinels the cancellable engine propagates: deadline expiry is a 504
// timeout, client cancellation the non-standard 499, and wrapping layers
// ("faircache: chunk 3: context canceled") must not defeat either.
func TestAsErrorContextMapping(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout, CodeTimeout},
		{fmt.Errorf("faircache: chunk 3: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, CodeTimeout},
		{context.Canceled, StatusClientClosedRequest, CodeCanceled},
		{fmt.Errorf("faircache: confl: dual growth interrupted: %w", context.Canceled), StatusClientClosedRequest, CodeCanceled},
	}
	for _, c := range cases {
		e := asError(c.err)
		if e.Status != c.wantStatus || e.Code != c.wantCode {
			t.Errorf("asError(%v) = %d/%s, want %d/%s", c.err, e.Status, e.Code, c.wantStatus, c.wantCode)
		}
	}
}

// TestSolveDeadlineAbortsEngine registers a topology where a full solve
// takes a measurable amount of work, then issues the same solve with a
// tiny per-request timeout. The request must come back as a typed 504
// well before the full solve duration — the deadline aborts the engine
// mid-solve rather than letting it run to completion and discarding the
// result — and the worker must be free for the next request immediately.
// The reference solve runs on a second registration of the same grid:
// timeoutMs is not part of the solve key, so on the same topology the
// short-deadline request would be a memo hit. The full solve (24×24, 128
// chunks at capacity 3) takes about 0.2 s on a 2-core VM, over 5× the
// 30ms deadline, and about 4 s under -race.
func TestSolveDeadlineAbortsEngine(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	ref := c.registerGrid(24, 24, 9)
	reg := c.registerGrid(24, 24, 9)
	solve := SolveRequest{Chunks: 128, Options: &SolveOptions{Algorithm: "appx", Capacity: 3}}

	// Reference: the full solve, untimed-out.
	start := time.Now()
	c.doJSON("POST", "/v1/topologies/"+ref.ID+"/solve", solve, nil, http.StatusOK)
	full := time.Since(start)

	// The same solve with a 30ms deadline must abort early.
	solve.TimeoutMs = 30
	start = time.Now()
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve", solve, http.StatusGatewayTimeout, CodeTimeout)
	aborted := time.Since(start)
	if aborted >= full {
		t.Fatalf("timed-out solve took %v, full solve takes %v — engine was not aborted", aborted, full)
	}

	// The worker is free: a small solve right behind the aborted one
	// commits normally (it would queue behind a still-running engine).
	var out SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "hopc"}}, &out, http.StatusOK)
	if out.Version < 2 {
		t.Fatalf("follow-up solve version = %d, want >= 2", out.Version)
	}
}

// TestSolveTimeoutDoesNotCommit asserts an aborted solve leaves no trace
// in the committed snapshot: the report still shows the prior state. The
// solve is TestSolveDeadlineAbortsEngine's, at over 5× the 20ms deadline.
func TestSolveTimeoutDoesNotCommit(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(24, 24, 9)
	solve := SolveRequest{Chunks: 128, TimeoutMs: 20, Options: &SolveOptions{Algorithm: "appx", Capacity: 3}}
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve", solve, http.StatusGatewayTimeout, CodeTimeout)

	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Snapshot.Version != 1 || rep.Snapshot.Solves != 0 {
		t.Fatalf("aborted solve committed: version %d, solves %d", rep.Snapshot.Version, rep.Snapshot.Solves)
	}
}

// TestDistTinyStepStopsAtDeadline: a Dist solve whose bid step asks for
// more rounds than any deadline allows (1e-9), or more than an int holds
// (1e-300), answers a typed 504 when the server's solve budget runs out,
// and frees the topology's worker: an Appx solve right after succeeds.
func TestDistTinyStepStopsAtDeadline(t *testing.T) {
	c, _ := newTestClient(t, Options{SolveTimeout: 150 * time.Millisecond})
	reg := c.registerGrid(3, 3, 4)
	for _, step := range []float64{1e-9, 1e-300} {
		start := time.Now()
		c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
			SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "dist", AlphaStep: step}},
			http.StatusGatewayTimeout, CodeTimeout)
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("alphaStep %g: answered after %v with a 150ms budget", step, took)
		}
	}
	var out SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "appx"}}, &out, http.StatusOK)
	if out.Version != 2 {
		t.Fatalf("follow-up solve version = %d, want 2 (the timed-out solves commit nothing)", out.Version)
	}
}

// TestQueuedExpiryStatus: a mutation whose context ends while it waits
// for the topology's worker answers by how the context ended, like an
// engine run the context aborts: 499 canceled when the caller hung up,
// 504 timeout when its deadline passed. Neither runs.
func TestQueuedExpiryStatus(t *testing.T) {
	c, s := newTestClient(t, Options{})
	reg := c.registerGrid(3, 3, 4)
	blockWorker(t, s, reg.ID)
	tp, _ := s.lookupTopology(reg.ID)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithTimeout(context.Background(), time.Millisecond)
	defer stop()
	for _, tc := range []struct {
		ctx        context.Context
		wantStatus int
		wantCode   string
	}{
		{canceled, StatusClientClosedRequest, CodeCanceled},
		{expired, http.StatusGatewayTimeout, CodeTimeout},
	} {
		ran := false
		_, err := tp.do(tc.ctx, func(context.Context) (any, error) {
			ran = true
			return nil, nil
		})
		if e := asError(err); e.Status != tc.wantStatus || e.Code != tc.wantCode || ran {
			t.Errorf("%v: status %d %s (ran %v), want %d %s", tc.ctx.Err(), e.Status, e.Code, ran, tc.wantStatus, tc.wantCode)
		}
	}
}
