package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

// BenchmarkRecovery times a durable daemon's restart, New plus Close, on
// the history perfbench serve restarts on: one 12×12 grid at capacity 5
// and chunk TTL 32 that has published 128 or 1,024 chunks, 16 at a time.
// Every op recovers the same data dir, which opening and closing the log
// leave as they found it.
func BenchmarkRecovery(b *testing.B) {
	for _, history := range []int{128, 1024} {
		dir := b.TempDir()
		writeHistory(b, dir, history)
		b.Run(fmt.Sprintf("publications=%d", history), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := New(Options{DataDir: dir})
				if err != nil {
					b.Fatalf("New: %v", err)
				}
				s.Close()
			}
		})
	}
}

// writeHistory registers BenchmarkRecovery's grid on a durable daemon in
// dir and publishes n chunks on it, 16 per request.
func writeHistory(b *testing.B, dir string, n int) {
	b.Helper()
	s, err := New(Options{DataDir: dir, Fsync: "never"})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	post := func(path, body string, want int) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != want {
			b.Fatalf("POST %s: status %d, %s", path, w.Code, w.Body)
		}
	}
	post("/v1/topologies", `{"kind":"grid","rows":12,"cols":12,"capacity":5,"chunkTTL":32}`, http.StatusCreated)
	for left := n; left > 0; left -= 16 {
		post("/v1/topologies/t1/publish", fmt.Sprintf(`{"count":%d}`, min(left, 16)), http.StatusOK)
	}
}
