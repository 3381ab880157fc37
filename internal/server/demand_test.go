package server

import (
	"net/http"
	"strings"
	"testing"

	faircache "repro"

	"repro/internal/demand"
	"repro/internal/sim"
)

// demandEvents generates n deterministic request events for a topology.
func demandEvents(t *testing.T, nodes, chunks, n int, producer int) []faircache.RequestEvent {
	t.Helper()
	tr, err := sim.NewTrace(sim.TraceSpec{Nodes: nodes, Chunks: chunks, Seed: 3, ZipfS: 1.1, Exclude: producer})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]faircache.RequestEvent, n)
	for i := range events {
		r := tr.Next()
		events[i] = faircache.RequestEvent{Node: r.Node, Chunk: r.Chunk}
	}
	return events
}

func TestRequestsLazyInitAndAccounting(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(5, 5, 12)

	// No chunks known and no init: the first batch must be rejected.
	var e struct {
		Error *Error `json:"error"`
	}
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: []faircache.RequestEvent{{Node: 1, Chunk: 0}},
	}, &e, http.StatusBadRequest)

	// An init past the cell budget is refused before anything is built
	// (2^50 chunks cannot even be allocated), and so is a first batch
	// with a bad event, which leaves no subsystem behind.
	for _, req := range []RequestsRequest{
		{Events: []faircache.RequestEvent{{Node: 1, Chunk: 0}}, Init: &DemandInit{Chunks: 1 << 50}},
		{Events: []faircache.RequestEvent{{Node: 1, Chunk: 0}}, Init: &DemandInit{Chunks: demand.MaxCells/25 + 1}},
		{Events: []faircache.RequestEvent{{Node: 1, Chunk: 0}, {Node: 99, Chunk: 0}}, Init: &DemandInit{Chunks: 8, Capacity: 3}},
	} {
		c.wantError("POST", "/v1/topologies/"+reg.ID+"/requests", req, http.StatusBadRequest, CodeBadRequest)
	}
	var info ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &info, http.StatusOK)
	if info.Demand != nil {
		t.Fatalf("refused first batches left demand state %+v", info.Demand)
	}

	// A negative topDelta is refused too and leaves no demand state, so
	// the next pass answers 400 instead of panicking on the worker. The
	// first check does not stop the test, so the second still runs.
	resp, raw := c.do("POST", "/v1/topologies/"+reg.ID+"/requests",
		[]byte(`{"events":[{"node":1,"chunk":0}],"init":{"chunks":8,"topDelta":-1}}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), CodeBadRequest) {
		t.Errorf("init with topDelta -1: status %d, body %s; want 400 bad_request", resp.StatusCode, raw)
	}
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/adapt", nil, http.StatusBadRequest, CodeBadRequest)

	// With init the subsystem seeds and serves.
	var out RequestsResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: demandEvents(t, 25, 8, 500, 12),
		Init:   &DemandInit{Chunks: 8, Capacity: 3},
	}, &out, http.StatusOK)
	if out.Batch.Requests != 500 {
		t.Fatalf("batch.Requests = %d, want 500", out.Batch.Requests)
	}
	if out.Batch.LocalHits > out.Batch.CacheHits || out.Batch.CacheHits > out.Batch.Requests {
		t.Fatalf("batch accounting inconsistent: %+v", out.Batch)
	}
	if out.Demand == nil || out.Demand.Chunks != 8 || out.Demand.Capacity != 3 {
		t.Fatalf("demand info = %+v", out.Demand)
	}

	// A second init must be rejected; a plain second batch accumulates.
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: []faircache.RequestEvent{{Node: 1, Chunk: 0}},
		Init:   &DemandInit{Chunks: 8},
	}, &e, http.StatusBadRequest)
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: []faircache.RequestEvent{{Node: 1, Chunk: 0}},
	}, &out, http.StatusOK)
	if out.Demand.Requests != 501 {
		t.Fatalf("cumulative requests = %d, want 501", out.Demand.Requests)
	}

	// A batch with a bad event serves none of its good ones.
	msg := c.wantError("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: []faircache.RequestEvent{{Node: 1, Chunk: 0}, {Node: 1, Chunk: 0}, {Node: 99, Chunk: 0}},
	}, http.StatusBadRequest, CodeBadRequest)
	if !strings.Contains(msg, "event 2") {
		t.Fatalf("message %q does not name event 2", msg)
	}

	// The demand state shows up in GET /v1/topologies/{id}.
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &info, http.StatusOK)
	if info.Demand == nil || info.Demand.Requests != 501 {
		t.Fatalf("topology info demand = %+v", info.Demand)
	}

	// Out-of-range events are a bad request, not an internal error.
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: []faircache.RequestEvent{{Node: 999, Chunk: 0}},
	}, &e, http.StatusBadRequest)
	if e.Error == nil || e.Error.Code != CodeBadRequest {
		t.Fatalf("error = %+v, want bad_request", e.Error)
	}
}

func TestAdaptCommitsSnapshot(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(6, 6, 14)

	var e struct {
		Error *Error `json:"error"`
	}
	// Adapt before any requests is a bad request.
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/adapt", nil, &e, http.StatusBadRequest)

	var rr RequestsResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: demandEvents(t, 36, 12, 3000, 14),
		Init:   &DemandInit{Chunks: 12, Capacity: 3},
	}, &rr, http.StatusOK)

	var ar AdaptResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/adapt", nil, &ar, http.StatusOK)
	if ar.Version != reg.Version+1 {
		t.Fatalf("version = %d, want %d", ar.Version, reg.Version+1)
	}
	if ar.Adaptation == nil || len(ar.Adaptation.TopChunks) == 0 {
		t.Fatalf("adaptation = %+v", ar.Adaptation)
	}
	if ar.Demand.Adaptations != 1 {
		t.Fatalf("Adaptations = %d, want 1", ar.Demand.Adaptations)
	}
	if len(ar.Holders) == 0 {
		t.Fatal("adapt committed no holders")
	}
	for k, hs := range ar.Holders {
		if k < 0 || k >= 12 || len(hs) == 0 {
			t.Fatalf("holders[%d] = %v", k, hs)
		}
	}

	// The committed snapshot is what report and lookup now serve.
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Snapshot.Source != "adapt" {
		t.Fatalf("snapshot source = %q, want adapt", rep.Snapshot.Source)
	}
	if rep.Snapshot.Version != ar.Version || rep.Snapshot.Chunks != 12 {
		t.Fatalf("snapshot = %+v", rep.Snapshot)
	}
	var lk LookupResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID+"/lookup?chunk=0&node=0", nil, &lk, http.StatusOK)
	if lk.Version != ar.Version {
		t.Fatalf("lookup version = %d, want %d", lk.Version, ar.Version)
	}
}

// TestDemandExpvarCounters checks the demand ingest and adaptation
// counters on /metrics against the responses that moved them.
func TestDemandExpvarCounters(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(5, 5, 12)
	var rr RequestsResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: demandEvents(t, 25, 8, 1000, 12),
		Init:   &DemandInit{Chunks: 8},
	}, &rr, http.StatusOK)
	var ar AdaptResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/adapt", nil, &ar, http.StatusOK)

	samples := c.scrape()
	counter := func(name string) int64 { return int64(samples[name]) }
	if got := counter("faircached_demand_events_total"); got != 1000 {
		t.Errorf("demand events = %d, want 1000", got)
	}
	hits, misses := counter("faircached_demand_local_hits_total"), counter("faircached_demand_misses_total")
	if hits != rr.Demand.LocalHits {
		t.Errorf("demand local hits = %d, want %d", hits, rr.Demand.LocalHits)
	}
	if misses != 1000-rr.Demand.CacheHits {
		t.Errorf("demand misses = %d, want %d", misses, 1000-rr.Demand.CacheHits)
	}
	if got := counter("faircached_adapt_passes_total"); got != 1 {
		t.Errorf("adapt passes = %d, want 1", got)
	}
	if got := counter(`faircached_adapt_actions_total{action="placed"}`); got != int64(ar.Adaptation.Placed) {
		t.Errorf("copies placed = %d, want %d", got, ar.Adaptation.Placed)
	}
}

func TestAdaptSnapshotSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c, s := newTestClient(t, Options{DataDir: dir})
	reg := c.registerGrid(5, 5, 12)
	var rr RequestsResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: demandEvents(t, 25, 8, 1000, 12),
		Init:   &DemandInit{Chunks: 8},
	}, &rr, http.StatusOK)
	var ar AdaptResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/adapt", nil, &ar, http.StatusOK)
	s.Close()

	c2, _ := newTestClient(t, Options{DataDir: dir})
	// The adapt-sourced snapshot (version, holders) is durable; the demand
	// observation stream is not, so a fresh batch re-initializes.
	var info ReportResponse
	c2.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &info, http.StatusOK)
	if info.Snapshot.Version != ar.Version {
		t.Fatalf("recovered version = %d, want %d", info.Snapshot.Version, ar.Version)
	}
	if info.Demand != nil {
		t.Fatalf("demand state should not survive restart: %+v", info.Demand)
	}
	var rep ReportResponse
	c2.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Snapshot.Source != "adapt" || rep.Snapshot.Chunks != 8 {
		t.Fatalf("recovered snapshot = %+v", rep.Snapshot)
	}
	var out RequestsResponse
	c2.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
		Events: []faircache.RequestEvent{{Node: 1, Chunk: 0}},
	}, &out, http.StatusOK)
	if out.Demand.Requests != 1 {
		t.Fatalf("post-restart demand should start fresh: %+v", out.Demand)
	}
}
