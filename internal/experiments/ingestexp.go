package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/engine"
	"opaq/internal/runio"
	"opaq/opaqclient"
)

// IngestSweep is an extension experiment beyond the paper's evaluation:
// it measures the server's ingest paths end to end — client encoding,
// transport, server decode and engine insert in one process — for the
// same stream pushed three ways: JSON over HTTP (the baseline API),
// binary frames over HTTP (content-negotiated on the same route), and
// binary frames over a persistent TCP connection. The paper's premise is
// that one sequential pass at device speed suffices for accurate
// quantiles; this table asks whether the service's front door keeps up
// with that pass, and by how much the binary framing widens it.
func IngestSweep(scale int) (*Table, error) {
	n := scaleN(8_000_000, scale)
	// One run per batch: large enough to amortize per-batch overheads, and
	// each transport ships the identical batch boundaries. A 64K-element
	// JSON body is ~700 KiB, still well under the ingest body cap. The
	// light sampling config (s=32) keeps the engine's own run-sorting cost
	// from drowning the transport costs this experiment compares.
	const batch = 1 << 16
	cfg := core.Config{RunLen: 1 << 16, SampleSize: 1 << 5}

	xs := datagen.Generate(datagen.NewUniform(seqSeed, 1<<62), n)

	t := &Table{
		ID:     "Extension: ingest",
		Title:  fmt.Sprintf("Ingest transport throughput (n=%s streamed in %d-element batches, m=%d, s=%d)", humanN(n), batch, cfg.RunLen, cfg.SampleSize),
		Header: []string{"Transport", "elems/sec", "ns/elem", "allocs/elem", "vs JSON"},
		Notes: []string{
			"one process: client encode, loopback transport, server decode and engine insert all measured together",
			"allocs/elem is the whole-process malloc count over the run — client and server sides combined",
		},
	}

	transports := []struct {
		key  string
		push func(e *engine.Engine[int64]) error
	}{
		{"json_http", func(e *engine.Engine[int64]) error {
			url, stop, err := serveHTTP(e)
			if err != nil {
				return err
			}
			defer stop()
			return pushJSON(url+"/ingest", xs, batch)
		}},
		{"binary_http", func(e *engine.Engine[int64]) error {
			url, stop, err := serveHTTP(e)
			if err != nil {
				return err
			}
			defer stop()
			c := opaqclient.NewHTTP(url, runio.Int64Codec{}, opaqclient.Options{MaxBatch: batch})
			if err := c.AddBatch(xs); err != nil {
				return err
			}
			return c.Close()
		}},
		{"tcp", func(e *engine.Engine[int64]) error {
			srv := engine.NewTCPServer(e, runio.Int64Codec{}, engine.TCPOptions{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go srv.Serve(ln)
			defer srv.Close()
			return pushTCPPipelined(ln.Addr().String(), xs, batch)
		}},
	}

	var jsonRate float64
	for _, tr := range transports {
		e, err := engine.New[int64](engine.Options{Config: cfg, Stripes: 4})
		if err != nil {
			return nil, err
		}
		elapsed, mallocs, err := measureIngest(func() error { return tr.push(e) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tr.key, err)
		}
		if got := e.N(); got != int64(n) {
			return nil, fmt.Errorf("%s: engine holds %d elements, pushed %d", tr.key, got, n)
		}

		rate := float64(n) / elapsed.Seconds()
		nsPerElem := float64(elapsed.Nanoseconds()) / float64(n)
		allocsPerElem := float64(mallocs) / float64(n)
		if tr.key == "json_http" {
			jsonRate = rate
		}
		t.AddRow(tr.key,
			humanN(int(rate)),
			fmt.Sprintf("%.1f", nsPerElem),
			fmt.Sprintf("%.2f", allocsPerElem),
			fmt.Sprintf("%.1fx", rate/jsonRate))

		t.AddMetric("ingest/"+tr.key+"/elems_per_sec", rate, "elems/sec", "higher", true)
		t.AddMetric("ingest/"+tr.key+"/ns_per_elem", nsPerElem, "ns/op", "lower", false)
		t.AddMetric("ingest/"+tr.key+"/allocs_per_elem", allocsPerElem, "allocs/op", "lower", false)
		if tr.key != "json_http" {
			t.AddMetric("ingest/"+tr.key+"/speedup_vs_json", rate/jsonRate, "x", "higher", false)
		}
	}
	return t, nil
}

// measureIngest runs one push under a malloc counter. The GC pass first
// keeps a previous transport's garbage out of this run's numbers.
func measureIngest(push func() error) (time.Duration, uint64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := push(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, nil
}

// serveHTTP exposes one engine on a loopback listener with the binary
// route enabled, returning the base URL and a stop function.
func serveHTTP(e *engine.Engine[int64]) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: engine.NewHandlerCodec(e, engine.Int64Key, runio.Int64Codec{}, engine.HandlerOptions{})}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// pushTCPPipelined streams data frames over one TCP connection with acks
// in flight: the protocol acks every batch, but nothing requires the
// client to block on each ack, so a writer goroutine keeps frames on the
// wire while a reader drains acks. This overlaps client encoding with
// server decode+insert — the transport's peak shape (opaqclient trades
// some of it for the simpler flush-and-confirm discipline).
func pushTCPPipelined(addr string, xs []int64, batch int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	batches := (len(xs) + batch - 1) / batch
	readErr := make(chan error, 1)
	go func() {
		br := bufio.NewReaderSize(conn, 16<<10)
		var payload []byte
		var acked int64
		for i := 0; i < batches; i++ {
			h, err := runio.ReadFrameHeader(br, 0)
			if err != nil {
				readErr <- err
				return
			}
			payload, err = runio.ReadFramePayload(br, h, payload)
			if err != nil {
				readErr <- err
				return
			}
			if h.Type != runio.FrameAck {
				_, msg, _ := runio.DecodeNackPayload(payload)
				readErr <- fmt.Errorf("batch %d nacked: %s", i, msg)
				return
			}
			count, _, err := runio.DecodeAckPayload(payload)
			if err != nil {
				readErr <- err
				return
			}
			acked += int64(count)
		}
		if acked != int64(len(xs)) {
			readErr <- fmt.Errorf("acked %d of %d elements", acked, len(xs))
			return
		}
		readErr <- nil
	}()

	bw := bufio.NewWriterSize(conn, 256<<10)
	var frame []byte
	for off := 0; off < len(xs); off += batch {
		end := min(off+batch, len(xs))
		frame, err = runio.AppendDataFrame(frame[:0], runio.Int64Codec{}, "", xs[off:end])
		if err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return <-readErr
}

// pushJSON streams batches through the JSON ingest route the way an
// idiomatic JSON client does — encoding/json marshalling one keys body
// per batch, one POST per batch over a kept-alive connection.
func pushJSON(url string, xs []int64, batch int) error {
	for off := 0; off < len(xs); off += batch {
		end := min(off+batch, len(xs))
		body, err := json.Marshal(struct {
			Keys []int64 `json:"keys"`
		}{Keys: xs[off:end]})
		if err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("json ingest: http %d", resp.StatusCode)
		}
	}
	return nil
}
