// Package client is the typed Go client for the faircached v1 API. It
// reuses the server's request and response types, so a program driving
// the daemon compiles against exactly the wire schema the service
// decodes, and it surfaces the service's typed error envelope
// ({"error": {"code", "message"}}) as *client.APIError values.
//
// Every method takes a context first and honors its cancellation. The
// zero-value http.Client timeout policy is the caller's: pass one via
// WithHTTPClient or accept the default 30s client.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
)

// APIError is a non-2xx response decoded from the service's JSON error
// envelope. Status is the HTTP status; Code and Message mirror the
// envelope ("bad_request", "not_found", ...). Responses that are not
// valid envelopes still produce an APIError with an empty Code.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("faircached: status %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("faircached: %s: %s", e.Code, e.Message)
}

// IsNotFound reports whether err is, or wraps, an APIError with the
// service's not_found code (unknown topology, unknown chunk).
func IsNotFound(err error) bool {
	var e *APIError
	return errors.As(err, &e) && e.Code == server.CodeNotFound
}

// Client talks to one faircached service.
type Client struct {
	base string
	hc   *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying HTTP client (default: 30s
// timeout).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the service at baseURL, e.g.
// "http://127.0.0.1:8080".
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the service root this client targets.
func (c *Client) BaseURL() string { return c.base }

// Register creates a topology and returns its id and shape.
func (c *Client) Register(ctx context.Context, req *server.RegisterRequest) (*server.RegisterResponse, error) {
	var out server.RegisterResponse
	if err := c.do(ctx, http.MethodPost, "/v1/topologies", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Topologies lists every registered topology.
func (c *Client) Topologies(ctx context.Context) ([]server.TopologyInfo, error) {
	var out struct {
		Topologies []server.TopologyInfo `json:"topologies"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/topologies", nil, &out); err != nil {
		return nil, err
	}
	return out.Topologies, nil
}

// Delete unregisters a topology.
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/topologies/"+id, nil, nil)
}

// Solve runs one placement solve and returns the committed result.
func (c *Client) Solve(ctx context.Context, id string, req *server.SolveRequest) (*server.SolveResponse, error) {
	var out server.SolveResponse
	if req == nil {
		req = &server.SolveRequest{}
	}
	if err := c.do(ctx, http.MethodPost, "/v1/topologies/"+id+"/solve", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Publish commits count online publications (count < 1 publishes one).
func (c *Client) Publish(ctx context.Context, id string, count int) (*server.PublishResponse, error) {
	if count < 1 {
		count = 1
	}
	var out server.PublishResponse
	if err := c.do(ctx, http.MethodPost, "/v1/topologies/"+id+"/publish", &server.PublishRequest{Count: count}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Lookup answers "which node serves chunk to node" against the
// committed snapshot.
func (c *Client) Lookup(ctx context.Context, id string, chunk, node int) (*server.LookupResponse, error) {
	var out server.LookupResponse
	path := fmt.Sprintf("/v1/topologies/%s/lookup?chunk=%d&node=%d", id, chunk, node)
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Report fetches a topology's one read: its committed snapshot, fairness
// metrics, storage curve, solver stats and demand state.
func (c *Client) Report(ctx context.Context, id string) (*server.ReportResponse, error) {
	var out server.ReportResponse
	if err := c.do(ctx, http.MethodGet, "/v1/topologies/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Requests reports a demand batch to the topology's demand subsystem.
// The body is server.AppendRequests' encoding, the bytes json.Marshal
// would write, which the service parses without reflection.
func (c *Client) Requests(ctx context.Context, id string, req *server.RequestsRequest) (*server.RequestsResponse, error) {
	body, err := server.AppendRequests(nil, req)
	if err != nil {
		return nil, err
	}
	var out server.RequestsResponse
	if err := c.send(ctx, http.MethodPost, "/v1/topologies/"+id+"/requests", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Adapt runs one demand-driven adaptation pass.
func (c *Client) Adapt(ctx context.Context, id string) (*server.AdaptResponse, error) {
	var out server.AdaptResponse
	if err := c.do(ctx, http.MethodPost, "/v1/topologies/"+id+"/adapt", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdaptWith runs one adaptation pass with observability options (e.g.
// Explain, which returns the pass's per-phase trace breakdown).
func (c *Client) AdaptWith(ctx context.Context, id string, req *server.AdaptRequest) (*server.AdaptResponse, error) {
	var out server.AdaptResponse
	if err := c.do(ctx, http.MethodPost, "/v1/topologies/"+id+"/adapt", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz fetches the service health summary.
func (c *Client) Healthz(ctx context.Context) (*server.HealthResponse, error) {
	var out server.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus exposition text from GET /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return string(body), nil
}

// do issues one request with in, unless nil, as its JSON body and
// decodes the response into out, as send does.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = buf
	}
	return c.send(ctx, method, path, body, out)
}

// send issues one request with body, unless nil, and decodes the
// response into out (out may be nil to discard a success body). Non-2xx
// statuses decode the error envelope into an *APIError.
func (c *Client) send(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var envelope struct {
			Error *server.Error `json:"error"`
		}
		if jerr := json.Unmarshal(raw, &envelope); jerr == nil && envelope.Error != nil {
			return &APIError{Status: resp.StatusCode, Code: envelope.Error.Code, Message: envelope.Error.Message}
		}
		return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}
