package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	faircache "repro"
)

// Error is the typed JSON error every endpoint returns on failure. The
// wire form is {"error": {"code": ..., "message": ...}} with the HTTP
// status matching Status.
type Error struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes used by the service.
const (
	CodeBadRequest = "bad_request" // malformed body, unknown field values, range errors
	CodeNotFound   = "not_found"   // unknown topology id, unknown chunk, bad route
	CodeGone       = "gone"        // topology deleted while the request was in flight
	CodeTimeout    = "timeout"     // request deadline expired; the engine aborted mid-solve
	CodeCanceled   = "canceled"    // client went away; the engine aborted mid-solve
	CodeShutdown   = "shutting_down"
	CodeInternal   = "internal"
)

// StatusClientClosedRequest is the non-standard HTTP status (nginx's 499)
// reported when a solve is abandoned because the client disconnected. No
// client reads it — the connection is gone — but it keeps access logs and
// metrics distinguishing "we were slow" (504) from "they left" (499).
const StatusClientClosedRequest = 499

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func badRequestf(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

func notFoundf(format string, args ...any) *Error {
	return &Error{Status: http.StatusNotFound, Code: CodeNotFound, Message: fmt.Sprintf(format, args...)}
}

func timeoutf(format string, args ...any) *Error {
	return &Error{Status: http.StatusGatewayTimeout, Code: CodeTimeout, Message: fmt.Sprintf(format, args...)}
}

func gonef(format string, args ...any) *Error {
	return &Error{Status: http.StatusGone, Code: CodeGone, Message: fmt.Sprintf(format, args...)}
}

// asError normalises any error into a typed *Error: the public library's
// argument errors map to bad_request, and the context sentinels the
// cancellable engine propagates map to timeout (504, deadline passed) or
// canceled (499, client went away) instead of internal.
func asError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	if errors.Is(err, faircache.ErrBadArgument) {
		return badRequestf("%v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return timeoutf("%v", err)
	}
	if errors.Is(err, context.Canceled) {
		return &Error{Status: StatusClientClosedRequest, Code: CodeCanceled, Message: err.Error()}
	}
	return &Error{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
}

// writeError writes the typed JSON error envelope; instrument counts the
// failure in faircached_request_errors_total.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	e := asError(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(struct {
		Error *Error `json:"error"`
	}{e})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
