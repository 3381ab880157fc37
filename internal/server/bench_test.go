package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// BenchmarkSolveBurst hammers one topology with identical solve requests
// from parallel clients: the first runs the engine, and every later one
// is a memo hit that commits its own copy of the stored placement.
func BenchmarkSolveBurst(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	producer := 7
	reg, err := json.Marshal(RegisterRequest{Kind: "grid", Rows: 6, Cols: 6, Producer: &producer})
	if err != nil {
		b.Fatalf("marshal register: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/topologies", "application/json", bytes.NewReader(reg))
	if err != nil {
		b.Fatalf("register: %v", err)
	}
	var regOut RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&regOut); err != nil {
		b.Fatalf("decode register: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("register: status %d", resp.StatusCode)
	}

	// One keep-alive connection per parallel client so redials don't
	// stagger the burst (as in TestSolveBurstCollapses).
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 64
	transport.MaxIdleConnsPerHost = 64
	cl := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	solveURL := ts.URL + "/v1/topologies/" + regOut.ID + "/solve"
	body := []byte(`{"chunks":6}`)
	var failures atomic.Int64

	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := cl.Post(solveURL, "application/json", bytes.NewReader(body))
			if err != nil {
				failures.Add(1)
				continue
			}
			var out SolveResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				failures.Add(1)
			}
		}
	})
	b.StopTimer()
	if n := failures.Load(); n > 0 {
		b.Fatalf("%d of %d solve requests failed", n, b.N)
	}
}

// BenchmarkRequestsBody times the requests codec on a canonical
// 2,000-event batch, the size the demand benchmark sends: decode is the
// handler's read and parse of the body, encode the client's appender.
func BenchmarkRequestsBody(b *testing.B) {
	body := canonicalBatch(b, 2000)
	b.Run("decode", func(b *testing.B) {
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, "/", rd)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if req, err := rereadRequests(r, rd, body); err != nil || len(req.Events) != 2000 {
				b.Fatalf("decoded %d events, error %v", len(req.Events), err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		var req RequestsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if encodedSink, err = AppendRequests(nil, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// encodedSink keeps BenchmarkRequestsBody's encoded bodies live.
var encodedSink []byte
