package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	faircache "repro"
)

func TestParseTraceparent(t *testing.T) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name, header, want string
	}{
		{"valid", valid, "4bf92f3577b34da6a3ce929d0e0e4736"},
		{"empty", "", ""},
		{"short", "00-abc-def-01", ""},
		{"long", valid + "x", ""},
		{"wrong version", "01" + valid[2:], ""},
		{"uppercase hex", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", ""},
		{"non-hex", "00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01", ""},
		{"all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", ""},
		{"missing dash", "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", ""},
		{"bad span hex", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902bZ-01", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseTraceparent(tc.header); got != tc.want {
				t.Errorf("parseTraceparent(%q) = %q, want %q", tc.header, got, tc.want)
			}
		})
	}
}

func TestGenTraceID(t *testing.T) {
	a, b := genTraceID(), genTraceID()
	if len(a) != 32 || !isLowerHex(a) {
		t.Errorf("genTraceID() = %q, want 32 lowercase hex digits", a)
	}
	if a == b {
		t.Errorf("two generated trace ids collide: %q", a)
	}
}

// doTraced is doJSON with a traceparent header.
func (c *testClient) doTraced(method, path, traceparent string, body, out any, wantStatus int) {
	c.t.Helper()
	if err := c.sendJSON(method, path, traceparent, body, out, wantStatus); err != nil {
		c.t.Fatal(err)
	}
}

// TestSolveTraceparentPropagation checks a caller-sent W3C traceparent
// becomes the solve's trace id, the explain response carries the phase
// report under that id, and an absent header still yields a generated id.
func TestSolveTraceparentPropagation(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)

	const header = "00-deadbeefdeadbeefdeadbeefdeadbeef-00f067aa0ba902b7-01"
	var resp SolveResponse
	c.doTraced("POST", "/v1/topologies/"+reg.ID+"/solve", header,
		SolveRequest{Chunks: 3, Options: &SolveOptions{Explain: true}}, &resp, http.StatusOK)
	if resp.TraceID != "deadbeefdeadbeefdeadbeefdeadbeef" {
		t.Errorf("TraceID = %q, want the traceparent's trace id", resp.TraceID)
	}
	if resp.Trace == nil {
		t.Fatal("explain solve returned no trace report")
	}
	if resp.Trace.TraceID != resp.TraceID {
		t.Errorf("report trace id %q != response trace id %q", resp.Trace.TraceID, resp.TraceID)
	}
	if resp.Trace.Spans == 0 || len(resp.Trace.Phases) == 0 {
		t.Errorf("explain report is empty: %+v", resp.Trace)
	}

	// No header: the server generates an id; no explain: no report.
	var plain SolveResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 4}, &plain, http.StatusOK)
	if len(plain.TraceID) != 32 || !isLowerHex(plain.TraceID) {
		t.Errorf("generated TraceID = %q, want 32 lowercase hex digits", plain.TraceID)
	}
	if plain.Trace != nil {
		t.Error("non-explain solve returned a trace report")
	}
}

// TestDebugTraceEndpoint checks GET /debug/trace returns the spans of an
// explain'd solve — the solver-layer phases and the server-layer
// evaluation span — and that the slowerThanMs filter and input
// validation work.
func TestDebugTraceEndpoint(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)

	// Before any traced request the rings are empty.
	var empty TraceDump
	c.doJSON("GET", "/debug/trace", nil, &empty, http.StatusOK)
	if empty.Count != 0 || len(empty.Spans) != 0 {
		t.Fatalf("fresh server dump = %+v, want empty", empty)
	}

	const header = "00-feedfacefeedfacefeedfacefeedface-00f067aa0ba902b7-01"
	var solve SolveResponse
	c.doTraced("POST", "/v1/topologies/"+reg.ID+"/solve", header,
		SolveRequest{Chunks: 3, Options: &SolveOptions{Explain: true}}, &solve, http.StatusOK)

	var dump TraceDump
	c.doJSON("GET", "/debug/trace", nil, &dump, http.StatusOK)
	if dump.Count != len(dump.Spans) || dump.Count == 0 {
		t.Fatalf("dump count %d / %d spans, want a consistent non-empty dump", dump.Count, len(dump.Spans))
	}
	names := map[string]bool{}
	for _, sp := range dump.Spans {
		if sp.TraceID != "feedfacefeedfacefeedfacefeedface" {
			t.Errorf("span %s has trace id %q, want the request's", sp.Name, sp.TraceID)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"metrics.evaluate", "solve", "confl"} {
		if !names[want] {
			t.Errorf("dump missing span %q (have %v)", want, names)
		}
	}
	// Spans are oldest-first.
	for i := 1; i < len(dump.Spans); i++ {
		if dump.Spans[i].Start.Before(dump.Spans[i-1].Start) {
			t.Errorf("spans not sorted by start: %v after %v", dump.Spans[i].Start, dump.Spans[i-1].Start)
		}
	}

	// An absurd filter excludes everything and is echoed back.
	var filtered TraceDump
	c.doJSON("GET", "/debug/trace?slowerThanMs=3600000", nil, &filtered, http.StatusOK)
	if filtered.Count != 0 {
		t.Errorf("slowerThanMs=1h kept %d spans, want 0", filtered.Count)
	}
	if filtered.SlowerThanMs != 3600000 {
		t.Errorf("SlowerThanMs echo = %v, want 3600000", filtered.SlowerThanMs)
	}

	c.wantError("GET", "/debug/trace?slowerThanMs=nope", nil, http.StatusBadRequest, CodeBadRequest)
	c.wantError("GET", "/debug/trace?slowerThanMs=-1", nil, http.StatusBadRequest, CodeBadRequest)
}

// TestQueuedSolvesKeepTraceIDs queues identical solves, each with its
// own traceparent, behind a parked worker. All but the first are memo
// hits, and each answers its own request's trace id.
func TestQueuedSolvesKeepTraceIDs(t *testing.T) {
	c, s := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	release := blockWorker(t, s, reg.ID)

	headers := []string{
		"00-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa-00f067aa0ba902b7-01",
		"00-bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb-00f067aa0ba902b7-01",
		"00-cccccccccccccccccccccccccccccccc-00f067aa0ba902b7-01",
		"00-dddddddddddddddddddddddddddddddd-00f067aa0ba902b7-01",
	}
	responses := make([]SolveResponse, len(headers))
	var wg sync.WaitGroup
	for i := range headers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/solve", headers[i],
				SolveRequest{Chunks: 3}, &responses[i], http.StatusOK); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitQueued(t, s, reg.ID, int64(1+len(headers)))
	release()
	wg.Wait()

	for i, resp := range responses {
		if want := parseTraceparent(headers[i]); resp.TraceID != want {
			t.Errorf("response %d trace id %q, want its own %q", i, resp.TraceID, want)
		}
	}
	if hits := memoHits(c); hits != float64(len(headers)-1) {
		t.Errorf("%v memo hits, want %d", hits, len(headers)-1)
	}
}

// TestQueueWaitSpan parks a mutation under a topology's lock, sends a
// sampled solve behind it and releases the lock after 20 ms. The solve's
// trace holds a server.queue span that lasts at least that long, beside
// its engine span.
func TestQueueWaitSpan(t *testing.T) {
	c, s := newTestClient(t, Options{TraceSample: 1})
	reg := c.registerGrid(4, 4, 5)
	release := blockWorker(t, s, reg.ID)

	const id = "0123456789abcdef0123456789abcdef"
	done := make(chan error, 1)
	go func() {
		done <- c.sendJSON("POST", "/v1/topologies/"+reg.ID+"/solve", "00-"+id+"-00f067aa0ba902b7-01",
			SolveRequest{Chunks: 3}, nil, http.StatusOK)
	}()
	waitQueued(t, s, reg.ID, 2)
	const parked = 20 * time.Millisecond
	time.Sleep(parked)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var dump TraceDump
	c.doJSON("GET", "/debug/trace", nil, &dump, http.StatusOK)
	waits := 0
	engine := false
	for _, sp := range dump.Spans {
		if sp.TraceID != id {
			continue
		}
		switch sp.Name {
		case "server.queue":
			waits++
			if sp.DurationMs < float64(parked)/float64(time.Millisecond) {
				t.Errorf("server.queue span lasted %.3f ms, want at least the %v the lock was held", sp.DurationMs, parked)
			}
		case "solve":
			engine = true
		}
	}
	if waits != 1 || !engine {
		t.Errorf("solve trace holds %d server.queue spans and engine span %v, want 1 and true", waits, engine)
	}
}

// TestAdaptExplain drives a demand batch, runs an explain'd adaptation
// pass, and checks the response carries the pass's trace id and phase
// report.
func TestAdaptExplain(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/solve", SolveRequest{Chunks: 4}, new(SolveResponse), http.StatusOK)

	var events []map[string]int
	for n := 0; n < 8; n++ {
		events = append(events, map[string]int{"node": n, "chunk": n % 4})
	}
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests",
		map[string]any{"events": events}, new(RequestsResponse), http.StatusOK)

	const header = "00-cafebabecafebabecafebabecafebabe-00f067aa0ba902b7-01"
	var resp AdaptResponse
	c.doTraced("POST", "/v1/topologies/"+reg.ID+"/adapt", header,
		AdaptRequest{Explain: true}, &resp, http.StatusOK)
	if resp.TraceID != "cafebabecafebabecafebabecafebabe" {
		t.Errorf("TraceID = %q, want the traceparent's trace id", resp.TraceID)
	}
	if resp.Adaptation == nil || resp.Adaptation.Trace == nil {
		t.Fatalf("explain adapt returned no trace report: %+v", resp.Adaptation)
	}
	if got := resp.Adaptation.Trace.TraceID; got != resp.TraceID {
		t.Errorf("report trace id %q != response trace id %q", got, resp.TraceID)
	}

	// A plain pass (no body at all) still works and carries a generated id.
	var plain AdaptResponse
	c.doJSON("POST", "/v1/topologies/"+reg.ID+"/adapt", nil, &plain, http.StatusOK)
	if len(plain.TraceID) != 32 || !isLowerHex(plain.TraceID) {
		t.Errorf("generated TraceID = %q, want 32 lowercase hex digits", plain.TraceID)
	}
	if plain.Adaptation != nil && plain.Adaptation.Trace != nil {
		t.Error("non-explain adapt returned a trace report")
	}
}

// TestSampledRequestRecordsEveryLayer runs alternating solves and adapt
// passes on two topologies of a durable server that samples 1 in 2
// requests, each request with its own traceparent. Every trace id in
// GET /debug/trace must hold the server and the solver layers of one
// request together, and exactly every second request must be sampled,
// although the startup recovery trace is recorded before any request.
// Each solve places its own chunk count, so none is a memo hit.
func TestSampledRequestRecordsEveryLayer(t *testing.T) {
	c, _ := newTestClient(t, Options{DataDir: t.TempDir(), TraceSample: 2})
	regs := []RegisterResponse{c.registerGrid(4, 4, 5), c.registerGrid(3, 3, 4)}
	for _, reg := range regs {
		c.doJSON("POST", "/v1/topologies/"+reg.ID+"/requests", RequestsRequest{
			Events: []faircache.RequestEvent{{Node: 0, Chunk: 1}, {Node: 2, Chunk: 0}, {Node: 3, Chunk: 1}},
			Init:   &DemandInit{Chunks: 4},
		}, nil, http.StatusOK)
	}

	const requests = 8
	ids := make([]string, requests)
	layers := make([][]string, requests)
	for i := range ids {
		ids[i] = fmt.Sprintf("%032x", i+1)
		header := "00-" + ids[i] + "-00f067aa0ba902b7-01"
		path := "/v1/topologies/" + regs[i%2].ID
		if i/2%2 == 0 {
			layers[i] = []string{"solve", "confl", "metrics.evaluate", "wal.append"}
			c.doTraced("POST", path+"/solve", header, SolveRequest{Chunks: 3 + i}, nil, http.StatusOK)
		} else {
			layers[i] = []string{"adapt", "wal.append"}
			c.doTraced("POST", path+"/adapt", header, nil, nil, http.StatusOK)
		}
	}

	var dump TraceDump
	c.doJSON("GET", "/debug/trace", nil, &dump, http.StatusOK)
	names := map[string]map[string]bool{}
	for _, sp := range dump.Spans {
		if names[sp.TraceID] == nil {
			names[sp.TraceID] = map[string]bool{}
		}
		names[sp.TraceID][sp.Name] = true
	}
	if !names["startup"]["wal.recover"] {
		t.Errorf("dump holds no startup wal.recover span (trace ids %v)", names)
	}
	delete(names, "startup")
	sampled := make([]bool, requests)
	for i, id := range ids {
		got := names[id]
		delete(names, id)
		sampled[i] = got != nil
		for _, want := range layers[i] {
			if sampled[i] && !got[want] {
				t.Errorf("request %d (%s) recorded %v, missing %q", i, layers[i][0], got, want)
			}
		}
		if i > 0 && sampled[i] == sampled[i-1] {
			t.Errorf("requests %d and %d both sampled = %v, want every second request sampled", i-1, i, sampled[i])
		}
	}
	if len(names) != 0 {
		t.Errorf("dump holds spans of trace ids no request sent: %v", names)
	}
}
