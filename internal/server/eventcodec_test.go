package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	faircache "repro"
)

// strictRequests is the reference decoding of a requests body: the
// strict encoding/json decoder, unknown fields disallowed and trailing
// data refused, that decoded every body before the hand parser. It
// returns the decoded request or the error message the service answers.
func strictRequests(body []byte) (RequestsRequest, string) {
	var req RequestsRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return RequestsRequest{}, "invalid JSON body: " + err.Error()
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return RequestsRequest{}, "trailing data after JSON body"
	}
	return req, ""
}

// FuzzRequestsBody checks that every body up to maxBodyBytes gets the
// reference decoder's answer from the handler's decode: the same request
// when accepted, the same bad_request message when refused. Longer bodies
// must be refused as bad requests when read.
func FuzzRequestsBody(f *testing.F) {
	f.Add([]byte(`{"events":[{"node":1,"chunk":2}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		read, rerr := readBody(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
		if len(body) > maxBodyBytes {
			if rerr == nil || rerr.Code != CodeBadRequest || rerr.Status != http.StatusBadRequest {
				t.Fatalf("%d-byte body read as %v, want a bad_request", len(body), rerr)
			}
			return
		}
		if rerr != nil || !bytes.Equal(read, body) {
			t.Fatalf("readBody = %q, %v; want the body back", read, rerr)
		}
		got, gerr := decodeRequests(body)
		want, wantMsg := strictRequests(body)
		if wantMsg != "" {
			if gerr == nil {
				t.Fatalf("body %q: decoded %+v, reference refuses it: %s", body, got, wantMsg)
			}
			if gerr.Message != wantMsg || gerr.Code != CodeBadRequest || gerr.Status != http.StatusBadRequest {
				t.Fatalf("body %q: error %+v, reference %q", body, gerr, wantMsg)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("body %q: error %q, reference decodes %+v", body, gerr.Message, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded %+v, reference %+v", body, got, want)
		}
	})
}

// canonicalBatch encodes n deterministic events the way the typed
// client sends them.
func canonicalBatch(tb testing.TB, n int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	events := make([]faircache.RequestEvent, n)
	for i := range events {
		events[i] = faircache.RequestEvent{Node: rng.Intn(225), Chunk: rng.Intn(64)}
	}
	body, err := json.Marshal(&RequestsRequest{Events: events})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// rereadRequests runs the handler's read and parse on body again, as
// the body of r.
func rereadRequests(r *http.Request, rd *bytes.Reader, body []byte) (RequestsRequest, *Error) {
	rd.Reset(body)
	r.Body = io.NopCloser(rd)
	return readRequests(r)
}

// TestRequestsBodyFastPath fails when a canonical batch misses the hand
// parser: the strict decoder makes over 30 allocations for 2,000 events
// as its buffers and the events grow, the read and hand parse one for
// the body and one for the events (plus the test's body reader).
func TestRequestsBodyFastPath(t *testing.T) {
	body := canonicalBatch(t, 2000)
	if _, ok := parseEvents(body); !ok {
		t.Fatal("canonical 2,000-event body is not parsed by hand")
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/", rd)
	var failed bool
	allocs := testing.AllocsPerRun(20, func() {
		req, err := rereadRequests(r, rd, body)
		failed = failed || err != nil || len(req.Events) != 2000
	})
	if failed {
		t.Fatal("canonical body did not decode to 2,000 events")
	}
	if allocs > 4 {
		t.Fatalf("read and decode of a canonical 2,000-event body: %.0f allocs, want at most 4", allocs)
	}
}

// TestAppendRequestsMatchesMarshal checks the client's body byte for
// byte against json.Marshal over random batches.
func TestAppendRequestsMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := []int{0, -1, 1, math.MaxInt, math.MinInt, -math.MaxInt, 224, 8192}
	id := func() int {
		if rng.Intn(3) == 0 {
			return ids[rng.Intn(len(ids))]
		}
		return rng.Int() - rng.Int()
	}
	cases := []*RequestsRequest{nil, {}, {Events: []faircache.RequestEvent{}}}
	for i := 0; i < 500; i++ {
		req := &RequestsRequest{}
		if n := rng.Intn(40) - 1; n >= 0 {
			req.Events = make([]faircache.RequestEvent, n)
			for j := range req.Events {
				req.Events[j] = faircache.RequestEvent{Node: id(), Chunk: id()}
			}
		}
		if rng.Intn(2) == 0 {
			req.Init = &DemandInit{Chunks: id(), Capacity: id(), TopDelta: id(), Eviction: []string{"", "lru", "<&>\"x "}[rng.Intn(3)]}
		}
		cases = append(cases, req)
	}
	for _, req := range cases {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRequests([]byte("prefix"), req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendRequests(%+v)\n got %s\nwant prefix%s", req, got, want)
		}
	}
}

// TestRequestsBodyOverLimit checks that bodies longer than maxBodyBytes
// answer 400 bad_request through the handler, whatever their shape.
func TestRequestsBodyOverLimit(t *testing.T) {
	c, _ := newTestClient(t, Options{})
	reg := c.registerGrid(4, 4, 5)
	for name, body := range map[string][]byte{
		"canonical":           canonicalBatch(t, maxBodyBytes/20),
		"trailing whitespace": append(canonicalBatch(t, 10), bytes.Repeat([]byte(" "), maxBodyBytes)...),
		"garbage":             bytes.Repeat([]byte("x"), maxBodyBytes+1),
	} {
		t.Run(name, func(t *testing.T) {
			if len(body) <= maxBodyBytes {
				t.Fatalf("body is %d bytes, not over the limit", len(body))
			}
			c.wantError("POST", "/v1/topologies/"+reg.ID+"/requests", body, http.StatusBadRequest, CodeBadRequest)
		})
	}
}
