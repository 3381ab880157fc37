package server

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"

	faircache "repro"
)

// The event batch of POST /v1/topologies/{id}/requests has one shape on
// the hot path: {"events":[{"node":N,"chunk":C},...]}, exactly what
// AppendRequests and encoding/json write for a batch without init. The
// handler parses that shape by hand and leaves every other body to the
// strict decoder, which therefore still decides each such body's answer.

// minEventBytes is the length of the shortest canonical event,
// {"node":0,"chunk":0}; with its separating comma, every event takes at
// least minEventBytes+1 bytes of the body.
const minEventBytes = 20

// batchShell is the length of the canonical body's shell without events:
// {"events":[]}.
const batchShell = 13

// eventBytes is the room AppendRequests reserves per event: a compact
// event with its comma, {"node":NNNN,"chunk":NNN}, so a batch of ids
// below 10,000 and 1,000 is written without growing the buffer.
const eventBytes = 26

// AppendRequests appends r's JSON encoding to dst. The bytes are those of
// json.Marshal(r): the events are written by hand, and init, when
// present, through json.Marshal.
func AppendRequests(dst []byte, r *RequestsRequest) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	dst = slices.Grow(dst, batchShell+eventBytes*len(r.Events))
	dst = append(dst, `{"events":`...)
	if r.Events == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, e := range r.Events {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = strconv.AppendInt(dst, int64(e.Node), 10)
			dst = append(dst, `,"chunk":`...)
			dst = strconv.AppendInt(dst, int64(e.Chunk), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Init != nil {
		init, err := json.Marshal(r.Init)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"init":`...), init...)
	}
	return append(dst, '}'), nil
}

// readRequests reads a requests body and decodes it as decodeRequests
// does: the handler's whole read and parse.
func readRequests(r *http.Request) (RequestsRequest, *Error) {
	body, err := readBody(r)
	if err != nil {
		return RequestsRequest{}, err
	}
	return decodeRequests(body)
}

// decodeRequests decodes a requests body: the canonical shape by hand,
// anything else with the strict decoder. Both give a body the same
// answer; the hand parser only skips the reflection.
func decodeRequests(body []byte) (RequestsRequest, *Error) {
	if events, ok := parseEvents(body); ok {
		return RequestsRequest{Events: events}, nil
	}
	var req RequestsRequest
	if err := decodeStrict(body, &req); err != nil {
		return RequestsRequest{}, err
	}
	return req, nil
}

// parseEvents parses a canonical requests body: JSON whitespace anywhere
// between tokens, the keys "events", "node" and "chunk" each spelled
// exactly so, once and in that order, and every integer written
// -?(0|[1-9][0-9]*) within int range. Anything else — init, other key
// spellings or orders, escapes, null, floats, exponents, duplicate or
// unknown keys, trailing bytes — reports ok false.
//
// Each step takes the index after the previous one and returns the index
// after its own tokens, or -1, which every later step passes on.
func parseEvents(body []byte) (events []faircache.RequestEvent, ok bool) {
	i := tokens(body, 0, `{"events":[`)
	if i < 0 {
		return nil, false
	}
	// An upper bound on the event count, so the slice never grows.
	events = make([]faircache.RequestEvent, 0, max(0, (len(body)-batchShell+1)/(minEventBytes+1)))
	end := char(body, i, ']')
	for end < 0 {
		var e faircache.RequestEvent
		i = tokens(body, i, `{"node":`)
		i, e.Node = integer(body, i)
		i = tokens(body, i, `,"chunk":`)
		i, e.Chunk = integer(body, i)
		if i = char(body, i, '}'); i < 0 {
			return nil, false
		}
		events = append(events, e)
		if end = char(body, i, ']'); end < 0 {
			if i = char(body, i, ','); i < 0 {
				return nil, false
			}
		}
	}
	if i = char(body, end, '}'); i < 0 || space(body, i) != len(body) {
		return nil, false
	}
	return events, true
}

// space returns the index of the first byte at or after i that is not
// JSON whitespace.
func space(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// char returns the index after the one-byte token c when c comes next
// after i, and -1 otherwise.
func char(b []byte, i int, c byte) int {
	if i < 0 {
		return -1
	}
	if i = space(b, i); i < len(b) && b[i] == c {
		return i + 1
	}
	return -1
}

// tokens returns the index after the token sequence seq when it comes
// next after i, and -1 otherwise. seq is written compact; the body may
// put JSON whitespace before and between its tokens, though not inside
// its strings, which hold no escapes.
func tokens(b []byte, i int, seq string) int {
	if i < 0 {
		return -1
	}
	if len(b)-i >= len(seq) && string(b[i:i+len(seq)]) == seq {
		return i + len(seq)
	}
	inString := false
	for k := 0; k < len(seq); k++ {
		if !inString {
			i = space(b, i)
		}
		if i == len(b) || b[i] != seq[k] {
			return -1
		}
		if seq[k] == '"' {
			inString = !inString
		}
		i++
	}
	return i
}

// integer returns the index after the integer -?(0|[1-9][0-9]*) that is
// the next token after i, and its value, or -1 when the next token is no
// such integer or does not fit an int. What follows it is the next
// step's token, so 1.5 and 1e2 fail there.
func integer(b []byte, i int) (int, int) {
	if i < 0 {
		return -1, 0
	}
	i = space(b, i)
	neg := i < len(b) && b[i] == '-'
	// u*10+d overflows when u passes cutoff, or reaches it with d past
	// last: MaxInt's last digit, one more for -MinInt.
	const cutoff = math.MaxInt / 10
	last := uint64(math.MaxInt % 10)
	if neg {
		i++
		last++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u >= cutoff && (u > cutoff || d > last) {
			return -1, 0
		}
		u = u*10 + d
	}
	if n := i - start; n == 0 || (n > 1 && b[start] == '0') {
		return -1, 0
	}
	if neg {
		return i, -int(u)
	}
	return i, int(u)
}
