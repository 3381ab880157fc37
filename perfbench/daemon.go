package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/server"
)

// Headers the benchmark's transport sets so the ServeHTTP wrapper can
// attach its span to the client call that caused it.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

type callKey struct{}

// callInfo travels in the request context from a timed client call to
// the transport.
type callInfo struct {
	req    string
	parent int
}

// daemon is an in-process faircached behind a loopback listener, driven
// through the typed client over at most maxConns connections.
type daemon struct {
	srv *server.Server
	hs  *http.Server
	tr  *http.Transport
	cl  *client.Client
	rec *recorder
	// served is closed when the HTTP server goroutine has returned.
	served chan struct{}
}

// maxConns is the client's connection limit, sized to the 2-core machine
// the workloads were tuned on, and the most client goroutines any
// workload runs.
const maxConns = 2

// startDaemon builds server.New(opts) and serves it on 127.0.0.1. With a
// non-nil recorder every request records a server.handler span.
func startDaemon(opts server.Options, rec *recorder) (*daemon, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, rec: rec, served: make(chan struct{})}
	var h http.Handler = srv
	if rec != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent := -1
			if p, err := strconv.Atoi(r.Header.Get(hdrParent)); err == nil {
				parent = p
			}
			id := rec.start("server.handler", r.Header.Get(hdrReq), parent)
			srv.ServeHTTP(w, r)
			rec.end(id)
		})
	}
	d.hs = &http.Server{Handler: h}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	d.tr = &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	hc := &http.Client{Timeout: 60 * time.Second, Transport: tagTransport{d.tr}}
	d.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(hc))
	return d, nil
}

// close drains the HTTP server, stops the topology workers and closes
// the WAL.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	<-d.served
	d.tr.CloseIdleConnections()
	d.srv.Close()
}

// tagTransport copies the timed call's request id and span onto the
// outgoing request.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ci, ok := r.Context().Value(callKey{}).(callInfo); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, ci.req)
		r.Header.Set(hdrParent, strconv.Itoa(ci.parent))
	}
	return t.base.RoundTrip(r)
}

// call times one typed-client call. With a recorder it also records the
// client.<endpoint> span that the handler span nests under.
func (d *daemon) call(ctx context.Context, endpoint, req string, fn func(ctx context.Context) error) (time.Duration, error) {
	id := d.rec.start("client."+endpoint, req, -1)
	if d.rec != nil {
		ctx = context.WithValue(ctx, callKey{}, callInfo{req: req, parent: id})
	}
	start := time.Now()
	err := fn(ctx)
	el := time.Since(start)
	d.rec.end(id)
	return el, err
}

// scrape reads GET /metrics into a map keyed by series name with labels.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	text, err := d.cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseProm(text)
}

// parseProm parses Prometheus text exposition lines "series value".
func parseProm(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}
