package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// traceIDKey carries the request's resolved trace id string through
// contexts, so the request's logs, spans and response agree on one id.
type traceIDKey struct{}

func withTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// traceIDFrom returns the trace id carried by ctx, "" when none.
func traceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// startTrace resolves r's trace id and threads it through ctx together
// with the request's trace, which the server layer and the solver both
// record into (nil, so recording nothing, unless the request is sampled
// or explain'd).
func (s *Server) startTrace(ctx context.Context, r *http.Request, explain bool) context.Context {
	id := requestTraceID(r)
	return trace.NewContext(withTraceID(ctx, id), s.tracer.StartTrace(id, explain))
}

// requestTraceID resolves a request's trace id: a valid W3C traceparent
// header wins, otherwise a fresh random id is generated — every request
// has an id, whether or not its spans are recorded.
func requestTraceID(r *http.Request) string {
	if id := parseTraceparent(r.Header.Get("traceparent")); id != "" {
		return id
	}
	return genTraceID()
}

// parseTraceparent extracts the trace-id field from a W3C traceparent
// header ("00-<32 hex>-<16 hex>-<2 hex>"), returning "" on anything
// malformed or the all-zero id.
func parseTraceparent(h string) string {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return ""
	}
	id := h[3:35]
	if !isLowerHex(id) || !isLowerHex(h[36:52]) || !isLowerHex(h[53:55]) {
		return ""
	}
	if id == "00000000000000000000000000000000" {
		return ""
	}
	return id
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// traceIDCtr backs genTraceID's fallback when the system randomness
// source fails (vanishingly rare; ids must still be unique-ish).
var traceIDCtr atomic.Uint64

// genTraceID returns a fresh 32-hex-digit trace id.
func genTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000000000000000" + strconv.FormatUint(0x1000_0000_0000|traceIDCtr.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}

// TraceDump is the body of GET /debug/trace: the daemon's recent-span
// ring, ordered by span start.
type TraceDump struct {
	// Count is len(Spans); SlowerThanMs echoes the filter applied.
	Count        int              `json:"count"`
	SlowerThanMs float64          `json:"slowerThanMs,omitempty"`
	Spans        []trace.SpanView `json:"spans"`
}

// handleDebugTrace serves GET /debug/trace?slowerThanMs=N. Spans appear
// only for sampled (Options.TraceSample) or explain'd requests — the
// ring is empty on a server that has never traced.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	slower := time.Duration(0)
	if raw := r.URL.Query().Get("slowerThanMs"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil || ms < 0 {
			s.writeError(w, badRequestf("slowerThanMs must be a non-negative number, got %q", raw))
			return
		}
		slower = time.Duration(ms * float64(time.Millisecond))
	}
	// The ring holds spans in the order they ended; a parent ends after
	// its children, so sort by start.
	spans := s.tracer.Views(slower)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	writeJSON(w, http.StatusOK, TraceDump{
		Count:        len(spans),
		SlowerThanMs: float64(slower) / float64(time.Millisecond),
		Spans:        spans,
	})
}
