package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	faircache "repro"

	"repro/internal/server"
)

// TestAPIError decodes error responses from a stub service: the typed
// envelope fills Code and Message, a body that is not an envelope gives
// an empty Code, and IsNotFound sees a not_found error through wrapping.
func TestAPIError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/topologies/gone":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"not_found","message":"unknown topology \"gone\""}}`)
		default:
			http.Error(w, "upstream unavailable", http.StatusBadGateway)
		}
	}))
	defer ts.Close()
	cl := New(ts.URL)
	ctx := context.Background()

	_, err := cl.Report(ctx, "gone")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("report of unknown topology: err %v, want *APIError", err)
	}
	want := APIError{Status: http.StatusNotFound, Code: server.CodeNotFound, Message: `unknown topology "gone"`}
	if *apiErr != want {
		t.Errorf("decoded %+v, want %+v", *apiErr, want)
	}
	if !IsNotFound(err) {
		t.Errorf("IsNotFound(%v) = false, want true", err)
	}
	if wrapped := fmt.Errorf("refresh: %w", err); !IsNotFound(wrapped) {
		t.Errorf("IsNotFound(%v) = false for a wrapped not_found error, want true", wrapped)
	}

	_, err = cl.Healthz(ctx)
	if !errors.As(err, &apiErr) {
		t.Fatalf("healthz against a failing proxy: err %v, want *APIError", err)
	}
	want = APIError{Status: http.StatusBadGateway, Message: "upstream unavailable"}
	if *apiErr != want {
		t.Errorf("decoded %+v, want %+v (no envelope, so no code)", *apiErr, want)
	}
	if IsNotFound(err) {
		t.Errorf("IsNotFound(%v) = true for a non-envelope error", err)
	}
}

// TestRequestsBodyMatchesMarshal checks that Requests, which posts the
// batch through server.AppendRequests, sends the bytes json.Marshal
// would: the wire body is unchanged for the service and any proxy.
func TestRequestsBodyMatchesMarshal(t *testing.T) {
	bodies := make(chan []byte, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies <- body
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q, want application/json", ct)
		}
		fmt.Fprint(w, `{"batch":{"requests":1}}`)
	}))
	defer ts.Close()
	cl := New(ts.URL)
	for _, req := range []*server.RequestsRequest{
		nil,
		{},
		{Events: []faircache.RequestEvent{}},
		{Events: []faircache.RequestEvent{{Node: 0, Chunk: 0}, {Node: -4, Chunk: math.MaxInt}, {Node: math.MinInt, Chunk: 63}}},
		{Events: []faircache.RequestEvent{{Node: 224, Chunk: 7}}, Init: &server.DemandInit{Chunks: 64, Capacity: 3, Eviction: "lru"}},
	} {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Requests(context.Background(), "t1", req); err != nil {
			t.Fatal(err)
		}
		if got := <-bodies; !bytes.Equal(got, want) {
			t.Errorf("Requests(%+v) sent %s, json.Marshal gives %s", req, got, want)
		}
	}
}
