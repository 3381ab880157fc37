package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/graph"
)

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, opts Options) (*testClient, *Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testClient{t: t, srv: ts}, s
}

// send issues one request, with a traceparent header unless it is
// empty, and returns the response and its body. A []byte body is sent
// verbatim, any other non-nil body as its JSON encoding. It returns
// failures instead of failing the test, so a worker goroutine can call
// it and report with t.Errorf: t.Fatal may only run on the test
// goroutine.
func (c *testClient) send(method, path, traceparent string, body any) (*http.Response, []byte, error) {
	var rd io.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, nil, fmt.Errorf("marshal body: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		return nil, nil, fmt.Errorf("new request: %w", err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp, out, nil
}

func (c *testClient) do(method, path string, body any) (*http.Response, []byte) {
	c.t.Helper()
	resp, raw, err := c.send(method, path, "", body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, raw
}

// sendJSON is send plus a status check and a decode of the body into
// out (unless out is nil). Like send, it returns its failures.
func (c *testClient) sendJSON(method, path, traceparent string, body, out any, wantStatus int) error {
	resp, raw, err := c.send(method, path, traceparent, body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d, want %d; body %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: unmarshal %q: %w", method, path, raw, err)
		}
	}
	return nil
}

func (c *testClient) doJSON(method, path string, body, out any, wantStatus int) {
	c.t.Helper()
	if err := c.sendJSON(method, path, "", body, out, wantStatus); err != nil {
		c.t.Fatal(err)
	}
}

func (c *testClient) registerGrid(rows, cols, producer int) RegisterResponse {
	c.t.Helper()
	var out RegisterResponse
	c.doJSON("POST", "/v1/topologies", RegisterRequest{
		Kind: "grid", Rows: rows, Cols: cols, Producer: &producer,
	}, &out, http.StatusCreated)
	return out
}

type errorEnvelope struct {
	Error *Error `json:"error"`
}

// wantError asserts a typed error envelope with the given status and
// code, and returns its message.
func (c *testClient) wantError(method, path string, body any, wantStatus int, wantCode string) string {
	c.t.Helper()
	resp, raw := c.do(method, path, body)
	if resp.StatusCode != wantStatus {
		c.t.Fatalf("%s %s: status %d, want %d; body %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		c.t.Fatalf("%s %s: not a typed error envelope: %s", method, path, raw)
	}
	if env.Error.Code != wantCode {
		c.t.Fatalf("%s %s: code %q, want %q (message %q)", method, path, env.Error.Code, wantCode, env.Error.Message)
	}
	return env.Error.Message
}

// blockWorker parks tp's single-writer worker on a mutation that only
// returns when the returned release func is called. While parked, every
// mutation queues behind it, which lets a test line up any number of
// requests on the worker deterministically (waitQueued counts them).
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

// waitQueued polls until exactly n mutations, blockWorker's parked one
// included, are queued on or running in the topology's worker.
func waitQueued(t *testing.T, s *Server, id string, n int64) {
	t.Helper()
	tp, terr := s.lookupTopology(id)
	if terr != nil {
		t.Fatalf("lookupTopology(%s): %v", id, terr)
	}
	for deadline := time.Now().Add(5 * time.Second); tp.queued.Load() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("worker of %s never held %d mutations; it holds %d", id, n, tp.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	var out HealthResponse
	c.doJSON("GET", "/healthz", nil, &out, http.StatusOK)
	if out.Status != "ok" || out.Topologies != 0 {
		t.Fatalf("healthz = %+v, want ok with 0 topologies", out)
	}
	c.registerGrid(3, 3, 4)
	c.doJSON("GET", "/healthz", nil, &out, http.StatusOK)
	if out.Topologies != 1 {
		t.Fatalf("topologies = %d after register, want 1", out.Topologies)
	}
}

func TestRegisterKinds(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	cases := []struct {
		name string
		req  RegisterRequest
		n    int
	}{
		{"grid", RegisterRequest{Kind: "grid", Rows: 3, Cols: 4}, 12},
		{"random", RegisterRequest{Kind: "random", Nodes: 20, Seed: 7}, 20},
		{"clustered", RegisterRequest{Kind: "clustered", Clusters: 3, Size: 5, Seed: 1}, 15},
		{"line", RegisterRequest{Kind: "line", Nodes: 6}, 6},
		{"ring", RegisterRequest{Kind: "ring", Nodes: 8}, 8},
		{"links", RegisterRequest{Kind: "links", Nodes: 3, Links: [][2]int{{0, 1}, {1, 2}}}, 3},
	}
	for _, tc := range cases {
		var out RegisterResponse
		c.doJSON("POST", "/v1/topologies", tc.req, &out, http.StatusCreated)
		if out.Nodes != tc.n {
			t.Errorf("%s: nodes = %d, want %d", tc.name, out.Nodes, tc.n)
		}
		if out.Version != 1 {
			t.Errorf("%s: version = %d, want 1", tc.name, out.Version)
		}
	}
	var list struct {
		Topologies []TopologyInfo `json:"topologies"`
	}
	c.doJSON("GET", "/v1/topologies", nil, &list, http.StatusOK)
	if len(list.Topologies) != len(cases) {
		t.Fatalf("list has %d topologies, want %d", len(list.Topologies), len(cases))
	}
}

func TestRegisterValidation(t *testing.T) {
	c, _ := newTestClient(t, Options{MaxNodes: 50})
	c.wantError("POST", "/v1/topologies", RegisterRequest{Kind: "pyramid"}, http.StatusBadRequest, CodeBadRequest)
	c.wantError("POST", "/v1/topologies", RegisterRequest{Kind: "grid", Rows: 0, Cols: 5}, http.StatusBadRequest, CodeBadRequest)
	c.wantError("POST", "/v1/topologies", RegisterRequest{Kind: "grid", Rows: 10, Cols: 10}, http.StatusBadRequest, CodeBadRequest) // MaxNodes
	bad := 99
	c.wantError("POST", "/v1/topologies", RegisterRequest{Kind: "grid", Rows: 3, Cols: 3, Producer: &bad}, http.StatusBadRequest, CodeBadRequest)
	c.wantError("POST", "/v1/topologies", RegisterRequest{Kind: "links", Nodes: 4, Links: [][2]int{{0, 1}}}, http.StatusBadRequest, CodeBadRequest) // disconnected
	// Specs the generators or AddEdge refuse are bad requests too.
	for _, body := range []string{
		`{"kind":"random","nodes":0}`,
		`{"kind":"clustered","clusters":0,"size":3}`,
		`{"kind":"links","nodes":3,"links":[[0,5]]}`,
	} {
		c.wantError("POST", "/v1/topologies", []byte(body), http.StatusBadRequest, CodeBadRequest)
	}
	// Unknown JSON fields are rejected by the strict decoder.
	resp, _ := c.do("POST", "/v1/topologies", map[string]any{"kind": "grid", "rows": 3, "cols": 3, "bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: status %d", resp.StatusCode)
	}
}

// TestRegisterSizeLimit posts one oversize spec per kind, plus two whose
// factors overflow int when multiplied, and checks each is refused with
// bad_request before any of its nodes is built.
func TestRegisterSizeLimit(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	specs := []RegisterRequest{
		{Kind: "grid", Rows: 1000, Cols: 1000},
		{Kind: "random", Nodes: 20000},
		{Kind: "clustered", Clusters: 100, Size: 100},
		{Kind: "line", Nodes: 1 << 20},
		{Kind: "ring", Nodes: 1 << 20},
		{Kind: "links", Nodes: 1 << 20},
		{Kind: "grid", Rows: 1 << 32, Cols: 1 << 32},
		{Kind: "clustered", Clusters: 1 << 32, Size: 1 << 32},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, spec := range specs {
		c.wantError("POST", "/v1/topologies", spec, http.StatusBadRequest, CodeBadRequest)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing %d oversize specs allocated %d bytes, want < 1 MiB", len(specs), grew)
	}
}

// FuzzRegisterBody posts fuzzed bodies through the registration path of
// a server capped at 64 nodes. Every body must answer 201 or a typed 4xx,
// never a 5xx or a panic, and every topology it registers must be
// connected with between 2 and 64 nodes. The seed corpus holds one body
// per kind, specs the generators refuse, and TestRegisterSizeLimit's
// oversize and overflowing specs.
func FuzzRegisterBody(f *testing.F) {
	const maxNodes = 64
	s, err := New(Options{MaxNodes: maxNodes})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(http.MethodPost, "/v1/topologies", body)
		if rec.Code != http.StatusCreated {
			var env errorEnvelope
			if rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error == nil || env.Error.Code == "" {
				t.Fatalf("body %q: status %d, %s; want 201 or a typed 4xx", body, rec.Code, rec.Body)
			}
			return
		}
		var out RegisterResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("body %q: registration response %s: %v", body, rec.Body, err)
		}
		s.mu.RLock()
		tp := s.topos[out.ID]
		s.mu.RUnlock()
		if n := tp.topo.NumNodes(); n < 2 || n > maxNodes || n != out.Nodes {
			t.Fatalf("body %q: registered %d nodes (response says %d), want 2 to %d", body, n, out.Nodes, maxNodes)
		}
		dist, err := tp.topo.HopDistances(0)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(dist, graph.Unreachable) {
			t.Fatalf("body %q: registered a disconnected topology", body)
		}
		if rec := serve(http.MethodDelete, "/v1/topologies/"+out.ID, nil); rec.Code != http.StatusOK {
			t.Fatalf("delete %s: status %d, %s", out.ID, rec.Code, rec.Body)
		}
	})
}

// FuzzSolveBody posts fuzzed bodies to the solve endpoint of a 4×4 grid
// on a server with a 100 ms solve timeout. Every body must answer 200, a
// typed 4xx or a typed 504, never a 5xx otherwise or a panic, and a
// committed solve's snapshot must list only chunks that hold a copy. A
// body that answered 200 without explain is posted again and must be
// served from the memo: 200 with every field equal but the per-request
// ones, and a version exactly one higher. The seed corpus holds chunk
// counts past the (chunk, node) cell budget, a dual step so small that
// the tick bound saturates, a placement that stores no copy, the removed
// workers knob, and one valid body per solve path.
func FuzzSolveBody(f *testing.F) {
	s, err := New(Options{SolveTimeout: 100 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	rec := serve(http.MethodPost, "/v1/topologies", []byte(`{"kind":"grid","rows":4,"cols":4}`))
	var reg RegisterResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &reg) != nil {
		f.Fatalf("register: status %d, %s", rec.Code, rec.Body)
	}
	tp, terr := s.lookupTopology(reg.ID)
	if terr != nil {
		f.Fatal(terr)
	}
	path := "/v1/topologies/" + reg.ID + "/solve"
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(http.MethodPost, path, body)
		if rec.Code != http.StatusOK {
			var env errorEnvelope
			typed := json.Unmarshal(rec.Body.Bytes(), &env) == nil && env.Error != nil && env.Error.Code != ""
			if !typed || (rec.Code != http.StatusGatewayTimeout && (rec.Code < 400 || rec.Code >= 500)) {
				t.Fatalf("body %q: status %d, %s; want 200, a typed 4xx or a typed 504", body, rec.Code, rec.Body)
			}
			return
		}
		for chunk, holders := range tp.snap.Load().Holders {
			if len(holders) == 0 {
				t.Fatalf("body %q: committed snapshot lists chunk %d with no copy", body, chunk)
			}
		}
		var req SolveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("body %q answered 200 but does not decode: %v", body, err)
		}
		if req.Options != nil && req.Options.Explain {
			return
		}
		again := serve(http.MethodPost, path, body)
		if again.Code != http.StatusOK {
			t.Fatalf("body %q: repeat answered %d, %s; want 200", body, again.Code, again.Body)
		}
		first, repeat := rec.Body.Bytes(), again.Body.Bytes()
		if got, want := withoutPerRequest(t, repeat), withoutPerRequest(t, first); got != want {
			t.Fatalf("body %q: repeat answered\n %s\nwant\n %s", body, got, want)
		}
		if v, prev := versionOf(t, repeat), versionOf(t, first); v != prev+1 {
			t.Fatalf("body %q: repeat committed version %d after %d, want exactly one higher", body, v, prev)
		}
	})
}

// FuzzAdaptBody posts fuzzed bodies to the adapt endpoint of a 4×4 grid
// whose demand subsystem one requests batch has initialized. Every body
// must answer 200 or a typed 4xx, never a 5xx or a panic. A 200 must
// commit exactly one new version, whose snapshot lists only chunks that
// hold a copy; a 4xx must commit nothing. The seed corpus holds the
// empty body, an empty object, explain as a bool and as a number, an
// unknown field, trailing data and null.
func FuzzAdaptBody(f *testing.F) {
	s, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	rec := serve(http.MethodPost, "/v1/topologies", []byte(`{"kind":"grid","rows":4,"cols":4}`))
	var reg RegisterResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &reg) != nil {
		f.Fatalf("register: status %d, %s", rec.Code, rec.Body)
	}
	tp, terr := s.lookupTopology(reg.ID)
	if terr != nil {
		f.Fatal(terr)
	}
	batch := `{"events":[{"node":1,"chunk":0},{"node":6,"chunk":1},{"node":11,"chunk":0},{"node":15,"chunk":3}],"init":{"chunks":4}}`
	if rec := serve(http.MethodPost, "/v1/topologies/"+reg.ID+"/requests", []byte(batch)); rec.Code != http.StatusOK {
		f.Fatalf("requests: status %d, %s", rec.Code, rec.Body)
	}
	path := "/v1/topologies/" + reg.ID + "/adapt"
	f.Fuzz(func(t *testing.T, body []byte) {
		before := tp.snap.Load().Version
		rec := serve(http.MethodPost, path, body)
		snap := tp.snap.Load()
		if rec.Code != http.StatusOK {
			var env errorEnvelope
			typed := json.Unmarshal(rec.Body.Bytes(), &env) == nil && env.Error != nil && env.Error.Code != ""
			if !typed || rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("body %q: status %d, %s; want 200 or a typed 4xx", body, rec.Code, rec.Body)
			}
			if snap.Version != before {
				t.Fatalf("body %q: refused with %d but committed version %d over %d", body, rec.Code, snap.Version, before)
			}
			return
		}
		var out AdaptResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("body %q: adapt response %s: %v", body, rec.Body, err)
		}
		if snap.Version != before+1 || out.Version != snap.Version {
			t.Fatalf("body %q: versions %d -> %d, response says %d; want exactly one new version", body, before, snap.Version, out.Version)
		}
		for chunk, holders := range snap.Holders {
			if len(holders) == 0 {
				t.Fatalf("body %q: committed snapshot lists chunk %d with no copy", body, chunk)
			}
		}
	})
}

func TestSolveEveryAlgorithm(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 9)
	for _, alg := range []string{"appx", "dist", "hopc", "cont"} {
		var out SolveResponse
		c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve",
			SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: alg}}, &out, http.StatusOK)
		if out.Algorithm == "" || len(out.Holders) != 3 {
			t.Fatalf("%s: bad solve response %+v", alg, out)
		}
		if out.TotalCost <= 0 {
			t.Errorf("%s: non-positive total cost %f", alg, out.TotalCost)
		}
		for chunk, holders := range out.Holders {
			if len(holders) == 0 {
				t.Errorf("%s: chunk %d has no holders", alg, chunk)
			}
		}
	}
	// Budgeted exact solve on a tiny topology.
	small := c.registerGrid(2, 2, 0)
	var out SolveResponse
	c.doJSON("POST", "/v1/topologies/"+small.ID+"/solve",
		SolveRequest{Chunks: 1, Options: &SolveOptions{Algorithm: "brtf", SearchBudget: 500}}, &out, http.StatusOK)
	if len(out.Holders) != 1 {
		t.Fatalf("brtf: holders %v", out.Holders)
	}
}

// TestSolvePartitioned drives the sharded solve path over HTTP: the
// options carry the region count, the response carries the decomposition
// report, and sharding any algorithm other than appx is a bad request.
func TestSolvePartitioned(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(8, 8, 9)
	var out SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 3,
			Options: &SolveOptions{Algorithm: "appx", Partition: &PartitionSpec{Regions: 4}}}, &out, http.StatusOK)
	if out.Partition == nil {
		t.Fatal("partitioned solve response has no partition report")
	}
	if out.Partition.Regions != 4 {
		t.Fatalf("Regions = %d, want 4", out.Partition.Regions)
	}
	if out.Partition.MatrixCells >= out.Partition.FullMatrixCells {
		t.Fatalf("MatrixCells %d must be below FullMatrixCells %d",
			out.Partition.MatrixCells, out.Partition.FullMatrixCells)
	}
	for chunk, holders := range out.Holders {
		if len(holders) == 0 {
			t.Fatalf("chunk %d has no holders", chunk)
		}
	}
	// A global solve keeps the field empty.
	var global SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 3, Options: &SolveOptions{Algorithm: "appx"}}, &global, http.StatusOK)
	if global.Partition != nil {
		t.Fatalf("global solve reported a partition: %+v", global.Partition)
	}
	// The solver stats surface the sharded activity via the report.
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Solver.PartitionedSolves != 1 || rep.Solver.PartitionPlans != 1 {
		t.Fatalf("solver stats %+v: want 1 partitioned solve and 1 plan", rep.Solver)
	}
	// Sharding is appx-only and the region count is validated.
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 3,
			Options: &SolveOptions{Algorithm: "dist", Partition: &PartitionSpec{Regions: 4}}}, http.StatusBadRequest, CodeBadRequest)
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 3,
			Options: &SolveOptions{Algorithm: "appx", Partition: &PartitionSpec{Regions: 1000}}}, http.StatusBadRequest, CodeBadRequest)
}

func TestSolveValidation(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(3, 3, 4)
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Options: &SolveOptions{Algorithm: "magic"}}, http.StatusBadRequest, CodeBadRequest)
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: -2, Options: &SolveOptions{Algorithm: "appx"}}, http.StatusBadRequest, CodeBadRequest)
	c.wantError("POST", "/v1/topologies/nope/solve",
		SolveRequest{Options: &SolveOptions{Algorithm: "appx"}}, http.StatusNotFound, CodeNotFound)
	// Chunk counts past the (chunk, node) cell budget are refused before
	// any engine allocates per chunk.
	for _, chunks := range []int{demand.MaxCells/9 + 1, 20_000_000_000_000} {
		c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
			SolveRequest{Chunks: chunks, Options: &SolveOptions{Algorithm: "Hopc"}}, http.StatusBadRequest, CodeBadRequest)
	}
}

// TestSolveTinyAlphaStep checks a dual step so small that the dual
// growth's tick bound saturates runs to the solve deadline and answers
// 504, and that the topology's worker is free for the next solve.
func TestSolveTinyAlphaStep(t *testing.T) {
	c, _ := newTestClient(t, Options{SolveTimeout: 200 * time.Millisecond})
	reg := c.registerGrid(3, 3, 4)
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 1, Options: &SolveOptions{Algorithm: "appx", AlphaStep: 1e-300}}, http.StatusGatewayTimeout, CodeTimeout)
	var out SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "appx"}}, &out, http.StatusOK)
	if out.Version != 2 {
		t.Errorf("version after the timed-out solve = %d, want 2", out.Version)
	}
}

// TestSolveOptimalTimeoutFreesWorker times out an exhaustive Brtf solve
// and then solves with Appx on the same topology. The exact search checks
// its context before each Steiner DP (tens of milliseconds on a 4×4 grid,
// several times that under -race), so the worker is free again soon after
// the 504 and the Appx solve answers 200 within its own timeout.
func TestSolveOptimalTimeoutFreesWorker(t *testing.T) {
	c, _ := newTestClient(t, Options{SolveTimeout: 500 * time.Millisecond})
	reg := c.registerGrid(4, 4, 5)
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 10, Options: &SolveOptions{Algorithm: "brtf"}}, http.StatusGatewayTimeout, CodeTimeout)
	var out SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 5, Options: &SolveOptions{Algorithm: "appx"}}, &out, http.StatusOK)
}

func TestSolveTimeout(t *testing.T) {
	c, _ := newTestClient(t, Options{SolveTimeout: time.Nanosecond})
	reg := c.registerGrid(4, 4, 9)
	// The solve cannot finish within a nanosecond; the worker either
	// skips it (queued past deadline) or discards the late result.
	c.wantError("POST", "/v1/topologies/"+reg.ID+"/solve",
		SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "appx"}}, http.StatusGatewayTimeout, CodeTimeout)
	// A timed-out solve must not have committed a snapshot.
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Snapshot.Solves != 0 || rep.Snapshot.Chunks != 0 {
		t.Fatalf("timed-out solve committed: %+v", rep.Snapshot)
	}
}

func TestPublishAndLookup(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	var pub PublishResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", PublishRequest{Count: 3}, &pub, http.StatusOK)
	if pub.Clock != 3 || pub.Published != 3 || len(pub.Publications) != 3 {
		t.Fatalf("publish response %+v, want clock=published=3", pub)
	}
	if pub.Version != 2 {
		t.Fatalf("version = %d, want 2 (register + one publish batch)", pub.Version)
	}
	for _, p := range pub.Publications {
		if len(p.CacheNodes) == 0 {
			t.Fatalf("publication %d placed no copies", p.Chunk)
		}
	}

	var lk LookupResponse
	c.doJSON("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=0&node=15", reg.ID), nil, &lk, http.StatusOK)
	if lk.ServedBy < 0 || lk.ServedBy >= 16 {
		t.Fatalf("servedBy = %d out of range", lk.ServedBy)
	}
	if !lk.FromProducer {
		found := false
		for _, h := range pub.Holders[0] {
			if h == lk.ServedBy {
				found = true
			}
		}
		if !found {
			t.Fatalf("servedBy %d is neither producer nor a holder of chunk 0 (%v)", lk.ServedBy, pub.Holders[0])
		}
	}
	// The requester itself may hold the chunk, in which case hops is 0.
	if lk.Hops < 0 {
		t.Fatalf("negative hops %d", lk.Hops)
	}

	// Lookup validation: unknown chunk, bad node, missing params.
	c.wantError("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=99&node=0", reg.ID), nil, http.StatusNotFound, CodeNotFound)
	c.wantError("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=0&node=99", reg.ID), nil, http.StatusBadRequest, CodeBadRequest)
	c.wantError("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=0", reg.ID), nil, http.StatusBadRequest, CodeBadRequest)
	c.wantError("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=x&node=0", reg.ID), nil, http.StatusBadRequest, CodeBadRequest)
}

func TestLookupAfterExpiryServedByProducer(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	producer := 0
	var reg RegisterResponse
	c.doJSON("POST", "/v1/topologies", RegisterRequest{
		Kind: "grid", Rows: 3, Cols: 3, Producer: &producer, ChunkTTL: 1,
	}, &reg, http.StatusCreated)
	var pub PublishResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", PublishRequest{Count: 2}, &pub, http.StatusOK)
	// TTL=1: chunk 0 expired when chunk 1 was published, but it is still
	// a known id — the producer serves it.
	var lk LookupResponse
	c.doJSON("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=0&node=8", reg.ID), nil, &lk, http.StatusOK)
	if !lk.FromProducer || lk.ServedBy != producer {
		t.Fatalf("expired chunk served by %d (fromProducer=%v), want producer %d", lk.ServedBy, lk.FromProducer, producer)
	}
	if len(pub.Holders[0]) != 0 {
		t.Fatalf("chunk 0 should have expired, holders %v", pub.Holders[0])
	}
}

func TestReport(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 9)
	var solve SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 4, Options: &SolveOptions{Algorithm: "appx"}}, &solve, http.StatusOK)
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Snapshot.Version != solve.Version {
		t.Fatalf("report version %d != solve version %d", rep.Snapshot.Version, solve.Version)
	}
	if rep.Snapshot.Source != "solve:Appx" {
		t.Fatalf("source = %q", rep.Snapshot.Source)
	}
	if rep.Copies != solve.Copies || rep.DistinctCaches != solve.DistinctCaches {
		t.Fatalf("report copies/distinct %d/%d != solve %d/%d", rep.Copies, rep.DistinctCaches, solve.Copies, solve.DistinctCaches)
	}
	if rep.Gini != solve.Gini {
		t.Fatalf("report gini %f != solve gini %f", rep.Gini, solve.Gini)
	}
	if len(rep.StorageCurve) != 16 {
		t.Fatalf("storage curve has %d points, want 16", len(rep.StorageCurve))
	}
	if rep.LiveChunks != 4 {
		t.Fatalf("liveChunks = %d, want 4", rep.LiveChunks)
	}
}

// TestReportSkipsChunksWithoutCopies checks a solve's snapshot lists only
// chunks that hold a copy, as publish and adapt commits do: a solve that
// places nothing leaves no live chunk, and its chunks are still served
// by the producer.
func TestReportSkipsChunksWithoutCopies(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	var reg RegisterResponse
	c.doJSON("POST", "/v1/topologies", RegisterRequest{Kind: "line", Nodes: 3, Capacity: 1}, &reg, http.StatusCreated)
	var solve SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 5}, &solve, http.StatusOK)
	if solve.Copies != 0 {
		t.Fatalf("solve placed %d copies, want a placement with none", solve.Copies)
	}
	rep := reportOf(c, reg.ID)
	if rep.LiveChunks != 0 || len(rep.Snapshot.Holders) != 0 {
		t.Errorf("liveChunks = %d, holders %v, want no live chunk", rep.LiveChunks, rep.Snapshot.Holders)
	}
	var lk LookupResponse
	c.doJSON("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=4&node=0", reg.ID), nil, &lk, http.StatusOK)
	if !lk.FromProducer || lk.ServedBy != reg.Producer {
		t.Errorf("chunk 4 served by %d (fromProducer=%v), want producer %d", lk.ServedBy, lk.FromProducer, reg.Producer)
	}
}

func TestSolveThenPublishKeepsOnlineState(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	var p1 PublishResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, &p1, http.StatusOK)
	var solve SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "hopc"}}, &solve, http.StatusOK)
	// The solve replaced the committed snapshot...
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Snapshot.Source != "solve:Hopc" {
		t.Fatalf("source = %q", rep.Snapshot.Source)
	}
	// ...but the online clock carries on from where it was.
	var p2 PublishResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, &p2, http.StatusOK)
	if p2.Clock != 2 || p2.Published != 2 {
		t.Fatalf("online clock = %d published = %d after solve, want 2/2", p2.Clock, p2.Published)
	}
	if p2.Version != solve.Version+1 {
		t.Fatalf("version %d, want %d", p2.Version, solve.Version+1)
	}
}

func TestDeleteTopology(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(3, 3, 4)
	c.doJSON("DELETE", "/v1/topologies/"+reg.ID, nil, nil, http.StatusOK)
	c.wantError("DELETE", "/v1/topologies/"+reg.ID, nil, http.StatusNotFound, CodeNotFound)
	c.wantError("GET", "/v1/topologies/"+reg.ID, nil, http.StatusNotFound, CodeNotFound)
	var out HealthResponse
	c.doJSON("GET", "/healthz", nil, &out, http.StatusOK)
	if out.Topologies != 0 {
		t.Fatalf("topologies = %d after delete, want 0", out.Topologies)
	}
}

// TestDebugVarsCounters checks the request, solve, publication, lookup
// and registration counters and the solve latency sum move on /metrics,
// and that GET /debug/vars is not served.
func TestDebugVarsCounters(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	counters := map[string]func(map[string]float64) float64{
		"requests": func(s map[string]float64) float64 { return familySum(s, "faircached_requests_total") },
		"solves":   func(s map[string]float64) float64 { return s["faircached_solve_duration_seconds_count"] },
		"publications": func(s map[string]float64) float64 {
			return s["faircached_publications_total"]
		},
		"lookups": func(s map[string]float64) float64 {
			return s[`faircached_requests_total{endpoint="lookup"}`]
		},
		"registrations": func(s map[string]float64) float64 {
			return s[`faircached_requests_total{endpoint="register"}`]
		},
		"solve latency": func(s map[string]float64) float64 {
			return s[`faircached_request_duration_seconds_sum{endpoint="solve"}`]
		},
	}
	before := c.scrape()
	reg := c.registerGrid(3, 3, 4)
	var solve SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 2, Options: &SolveOptions{Algorithm: "appx"}}, &solve, http.StatusOK)
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/publish", nil, nil, http.StatusOK)
	var lk LookupResponse
	c.doJSON("GET", fmt.Sprintf("/v1/topologies/%s/lookup?chunk=0&node=0", reg.ID), nil, &lk, http.StatusOK)
	after := c.scrape()

	for key, read := range counters {
		if b, a := read(before), read(after); a <= b {
			t.Errorf("counter %s did not increase: %v -> %v", key, b, a)
		}
	}
	if resp, _ := c.do("GET", "/debug/vars", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars: status %d, want 404", resp.StatusCode)
	}
}

func TestServerCloseRejectsNewWork(t *testing.T) {
	c, s := newTestClient(t, Options{})
	reg := c.registerGrid(3, 3, 4)
	s.Close()
	resp, _ := c.do("POST", "/v1/topologies", RegisterRequest{Kind: "grid", Rows: 3, Cols: 3})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register after close: status %d, want 503", resp.StatusCode)
	}
	// The old topology is gone from the registry.
	resp, _ = c.do("GET", "/v1/topologies/"+reg.ID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("report after close: status %d, want 404", resp.StatusCode)
	}
}

// TestReportSolverStats checks the warm-model plumbing end to end: the
// first solve on a topology pays the one cold cost-matrix build, every
// later distinct solve is served from the warm base model, and the
// report exposes the counters. The two appx solves differ in chunk count
// so the second runs the engine rather than the memo.
func TestReportSolverStats(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 9)
	for _, req := range []SolveRequest{
		{Chunks: 3, Options: &SolveOptions{Algorithm: "appx"}},
		{Chunks: 4, Options: &SolveOptions{Algorithm: "appx"}},
		{Chunks: 3, Options: &SolveOptions{Algorithm: "hopc"}},
		{Chunks: 3, Options: &SolveOptions{Algorithm: "cont"}},
	} {
		var solve SolveResponse
		c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", req, &solve, http.StatusOK)
	}
	var rep ReportResponse
	c.doJSON("GET", "/v1/topologies/"+reg.ID, nil, &rep, http.StatusOK)
	if rep.Solver.ColdBuilds != 1 {
		t.Fatalf("coldBuilds = %d, want exactly 1 across 4 solves", rep.Solver.ColdBuilds)
	}
	if rep.Solver.WarmSolves < 3 {
		t.Fatalf("warmSolves = %d, want >= 3", rep.Solver.WarmSolves)
	}
}
