package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opaq/internal/runio"
)

// The wrappers in this file time the layers from outside, at their
// public seams; the program under test is not changed. Parent links
// travel in spanHeader between processes' HTTP layers and in the request
// context inside the coordinator.
const spanHeader = "X-Opaq-Bench-Span"

type spanKey struct{}

// route is the last element of a URL path: ingest, quantile, summary, ...
func route(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// countedBody finishes a span when the response body is closed, so a
// round trip's span covers reading the body too.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// clientTransport is the RoundTripper of the http.Client handed to
// opaqclient. One goroutine drives each client, so the client's current
// operation span is a single field.
type clientTransport struct {
	tr   *tracer
	next http.RoundTripper
	op   atomic.Uint64 // current client_op span; 0 when untraced
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := c.op.Load()
	if parent == 0 {
		return c.next.RoundTrip(req)
	}
	s := span{ID: c.tr.newID(), Parent: parent, Kind: kClientRT, Route: route(req.URL.Path), Start: c.tr.now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	return finishRoundTrip(c.tr, s, c.next, req)
}

// finishRoundTrip runs the request and records s when its body closes.
func finishRoundTrip(tr *tracer, s span, next http.RoundTripper, req *http.Request) (*http.Response, error) {
	resp, err := next.RoundTrip(req)
	if err != nil {
		s.End = tr.now()
		tr.record(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		s.Bytes = n
		s.End = tr.now()
		tr.record(s)
	}}
	return resp, nil
}

// startOp opens a client_op span when tracing is on and makes it the
// parent of the client's round trips; the returned func closes it.
func (c *clientTransport) startOp(route string, elems int64) func() {
	if c == nil || !c.tr.on.Load() {
		return func() {}
	}
	s := span{ID: c.tr.newID(), Kind: kClientOp, Route: route, Start: c.tr.now(), Elems: elems}
	c.op.Store(s.ID)
	return func() {
		c.op.Store(0)
		s.End = c.tr.now()
		c.tr.record(s)
	}
}

// outboundTransport wraps the coordinator's worker RoundTripper
// (cluster.Options.Client.HTTP). Its parent is the coordinator span in
// the request context. The gather singleflight leader fetches summaries
// under the coordinator's own context, which has none; those fetches are
// recorded while tracing is on and attributed by interval containment
// when reduced.
type outboundTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (o *outboundTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	if parent == 0 && (!o.tr.on.Load() || route(req.URL.Path) != "summary") {
		return o.next.RoundTrip(req)
	}
	s := span{ID: o.tr.newID(), Parent: parent, Kind: kOut, Route: route(req.URL.Path), Start: o.tr.now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10))
	return finishRoundTrip(o.tr, s, o.next, req)
}

// statusWriter captures the status a handler answers with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler records a span of kind k for every request carrying a
// parent span header, and hands its id to the handler's context.
func traceHandler(tr *tracer, k kind, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			next.ServeHTTP(w, r)
			return
		}
		s := span{ID: tr.newID(), Parent: parent, Kind: k, Route: route(r.URL.Path), Start: tr.now()}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ID)))
		s.Status = sw.status
		s.End = tr.now()
		tr.record(s)
	})
}

// timedDataset wraps the runio.Dataset passed to core.BuildFromDataset,
// accumulating the time spent inside its RunReader and the bytes read.
type timedDataset struct {
	runio.Dataset[int64]
	readNs atomic.Int64
	bytes  atomic.Int64
}

func (d *timedDataset) Runs(m int) (runio.RunReader[int64], error) {
	rr, err := d.Dataset.Runs(m)
	if err != nil {
		return nil, err
	}
	return &timedReader{RunReader: rr, d: d}, nil
}

type timedReader struct {
	runio.RunReader[int64]
	d *timedDataset
}

func (r *timedReader) NextRun() ([]int64, error) {
	t := time.Now()
	run, err := r.RunReader.NextRun()
	r.d.readNs.Add(int64(time.Since(t)))
	r.d.bytes.Add(int64(len(run)) * 8)
	return run, err
}
