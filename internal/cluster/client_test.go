package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkerClientHonorsContext is the retry-backoff regression test: a
// canceled context must abort the retry loop — including mid-backoff —
// instead of sleeping out the full schedule, so a draining coordinator
// is never pinned by requests to a dead worker.
func TestWorkerClientHonorsContext(t *testing.T) {
	// An address nothing listens on: every attempt fails at transport
	// level, which is what drives the backoff path.
	const deadURL = "http://127.0.0.1:1/t/x/summary"
	c := &WorkerClient{Attempts: 5, Backoff: 30 * time.Second}

	// Pre-canceled: not a single backoff tick may elapse.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := c.Do(ctx, http.MethodGet, deadURL, "", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Do error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-canceled Do took %v", elapsed)
	}

	// Canceled mid-backoff: with a 30s first backoff, only the context
	// can unblock the call this fast.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start = time.Now()
	_, _, err := c.GetBody(ctx, deadURL)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-backoff GetBody error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("mid-backoff cancellation took %v, backoff slept through it", elapsed)
	}
}

// TestWorkerClientBackoffCap pins the retry schedule's ceiling: the
// delay doubles from its starting point but never past maxBackoff, so a
// raised attempt count against a long-dead owner costs a bounded stall
// per retry instead of a geometric one.
func TestWorkerClientBackoffCap(t *testing.T) {
	d := 50 * time.Millisecond
	var total time.Duration
	for i := 0; i < 10; i++ {
		d = nextBackoff(d)
		total += d
		if d > maxBackoff {
			t.Fatalf("step %d: backoff %v exceeds cap %v", i, d, maxBackoff)
		}
	}
	if d != maxBackoff {
		t.Fatalf("after 10 doublings backoff = %v, want pinned at %v", d, maxBackoff)
	}
	// 100ms..1.6s doubling, then capped at 2s for the remaining 5 steps.
	want := 100*time.Millisecond + 200*time.Millisecond + 400*time.Millisecond +
		800*time.Millisecond + 1600*time.Millisecond + 5*maxBackoff
	if total != want {
		t.Fatalf("10-retry schedule sleeps %v, want %v", total, want)
	}
	// An explicit Backoff above the cap is honored as the first delay
	// (the cap bounds growth, it does not clamp configuration), and the
	// very next doubling lands on the cap.
	if got := nextBackoff(30 * time.Second); got != maxBackoff {
		t.Fatalf("nextBackoff(30s) = %v, want %v", got, maxBackoff)
	}
}

// TestWorkerClientConditionalGet pins the GetBodyTag protocol: the tag
// travels as If-None-Match, a 304 comes back tagged and bodyless, and a
// changed resource answers 200 with the fresh tag.
func TestWorkerClientConditionalGet(t *testing.T) {
	var current atomic.Value
	current.Store(`"v1"`)
	var conditional atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		etag := current.Load().(string)
		w.Header().Set("ETag", etag)
		if got := r.Header.Get("If-None-Match"); got != "" {
			conditional.Add(1)
			if got == etag {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Write([]byte("body-" + etag))
	}))
	defer srv.Close()

	c := &WorkerClient{}
	ctx := context.Background()
	status, body, etag, err := c.GetBodyTag(ctx, srv.URL, "")
	if err != nil || status != http.StatusOK || etag != `"v1"` || string(body) != `body-"v1"` {
		t.Fatalf("cold fetch: status %d etag %q body %q err %v", status, etag, body, err)
	}
	status, body, etag, err = c.GetBodyTag(ctx, srv.URL, etag)
	if err != nil || status != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("warm fetch: status %d body %q err %v, want bodyless 304", status, body, err)
	}
	if etag != `"v1"` {
		t.Fatalf("304 etag %q", etag)
	}
	current.Store(`"v2"`)
	status, body, etag, err = c.GetBodyTag(ctx, srv.URL, `"v1"`)
	if err != nil || status != http.StatusOK || etag != `"v2"` || string(body) != `body-"v2"` {
		t.Fatalf("invalidated fetch: status %d etag %q body %q err %v", status, etag, body, err)
	}
	if conditional.Load() != 2 {
		t.Fatalf("server saw %d conditional requests, want 2", conditional.Load())
	}
}

// TestWorkerClientReadsBodies: a body with a Content-Length (a worker's
// /summary) is read into one allocation of exactly its size, and a
// chunked body without one is still read whole.
func TestWorkerClientReadsBodies(t *testing.T) {
	payload := bytes.Repeat([]byte("opaq summary "), 10_000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sized" {
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
			w.Write(payload)
			return
		}
		half := len(payload) / 2
		w.Write(payload[:half])
		w.(http.Flusher).Flush()
		w.Write(payload[half:])
	}))
	defer srv.Close()
	c := &WorkerClient{}
	for _, path := range []string{"/sized", "/chunked"} {
		status, body, err := c.GetBody(context.Background(), srv.URL+path)
		if err != nil || status != http.StatusOK {
			t.Fatalf("%s: status %d, error %v", path, status, err)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("%s: body of %d bytes differs from the %d sent", path, len(body), len(payload))
		}
		if path == "/sized" && cap(body) != len(payload) {
			t.Fatalf("sized body: capacity %d for %d bytes, want one exact allocation", cap(body), len(payload))
		}
	}
}
