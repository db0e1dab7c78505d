package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"opaq/internal/cluster"
	"opaq/internal/core"
	"opaq/internal/engine"
	"opaq/internal/runio"
	"opaq/opaqclient"
)

// Worker defaults are those of `opaq worker` (m=65536, s=1024, stripes =
// GOMAXPROCS, 16 buckets); the workloads only choose the seal policy and
// turn compaction on.
const (
	workerRunLen     = 1 << 16
	workerSampleSize = 1 << 10
	numWorkers       = 3
	fleetSpread      = 2
	workerTimeout    = 5 * time.Second
)

// fleet is the serving path in one process: three engine.Registry
// workers behind engine.NewRegistryHandler and one cluster.Coordinator,
// each on its own loopback listener.
type fleet struct {
	regs    []*engine.Registry[int64]
	servers []*http.Server
	coord   *cluster.Coordinator[int64]
	url     string
	tr      *tracer // nil when untraced
	wg      sync.WaitGroup
	// transports are closed with the fleet so no idle connection outlives it.
	transports []*http.Transport
	admin      *http.Client
}

func workerOptions(policy engine.EpochPolicy) engine.Options {
	return engine.Options{
		Config:     core.Config{RunLen: workerRunLen, SampleSize: workerSampleSize},
		Epoch:      policy,
		Compaction: engine.CompactionPolicy{Enabled: true},
	}
}

// startFleet starts the workers and the coordinator. With tr set, the
// worker and coordinator handlers and the coordinator's outbound
// RoundTripper are wrapped to record spans.
func startFleet(policy engine.EpochPolicy, tr *tracer) (*fleet, error) {
	f := &fleet{tr: tr}
	f.admin = &http.Client{Transport: f.newTransport()}
	var workers []string
	for i := 0; i < numWorkers; i++ {
		reg, err := engine.NewRegistry(engine.RegistryOptions[int64]{
			Defaults: workerOptions(policy),
			Codec:    runio.Int64Codec{},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.regs = append(f.regs, reg)
		var h http.Handler = engine.NewRegistryHandler(reg, engine.Int64Key, engine.HandlerOptions{})
		if tr != nil {
			h = traceHandler(tr, kWorker, h)
		}
		url, err := f.serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		workers = append(workers, url)
	}
	hc := cluster.NewWorkerHTTPClient(workerTimeout)
	if tr != nil {
		hc.Transport = &outboundTransport{tr: tr, next: hc.Transport}
	}
	coord, err := cluster.New(cluster.Options[int64]{
		Workers: workers,
		Spread:  fleetSpread,
		Codec:   runio.Int64Codec{},
		Parse:   engine.Int64Key,
		Client:  &cluster.WorkerClient{HTTP: hc},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	var h http.Handler = coord.Handler()
	if tr != nil {
		h = traceHandler(tr, kCoord, h)
	}
	if f.url, err = f.serve(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// newTransport is one client connection pool; each benchmark client gets
// its own so a closed loop keeps one connection.
func (f *fleet) newTransport() *http.Transport {
	t := &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: 90 * time.Second}
	f.transports = append(f.transports, t)
	return t
}

// clientHTTP returns the http.Client for one opaqclient client, and its
// tracing transport (nil when untraced).
func (f *fleet) clientHTTP() (*http.Client, *clientTransport) {
	var rt http.RoundTripper = f.newTransport()
	var ct *clientTransport
	if f.tr != nil {
		ct = &clientTransport{tr: f.tr, next: rt}
		rt = ct
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}, ct
}

// close stops the coordinator, the servers and the registries, and waits
// for every serving goroutine to return.
func (f *fleet) close() {
	for _, srv := range f.servers {
		srv.Close()
	}
	f.wg.Wait()
	if f.coord != nil {
		f.coord.Close()
	}
	for _, reg := range f.regs {
		reg.Close()
	}
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
}

// createTenant creates a tenant through the coordinator's admin API;
// cfg holds optional per-tenant engine settings (the admin JSON fields).
func (f *fleet) createTenant(name string, cfg map[string]any) error {
	body := map[string]any{"name": name}
	for k, v := range cfg {
		body[k] = v
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := f.admin.Post(f.url+"/admin/tenants", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create tenant %s: http %d: %s", name, resp.StatusCode, msg)
	}
	return nil
}

// engines returns the tenant's engines on the workers that hold it.
func (f *fleet) engines(tenant string) []*engine.Engine[int64] {
	var out []*engine.Engine[int64]
	for _, reg := range f.regs {
		if eng, err := reg.Get(tenant); err == nil {
			out = append(out, eng)
		}
	}
	return out
}

// cacheCounters reads the coordinator's gather-cache counters from
// /stats.
func (f *fleet) cacheCounters(tenant string) (map[string]float64, error) {
	resp, err := f.admin.Get(f.url + "/t/" + tenant + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: http %d", resp.StatusCode)
	}
	var st struct {
		Cache map[string]any `json:"gather_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range st.Cache {
		if x, ok := v.(float64); ok {
			out[k] = x
		}
	}
	return out, nil
}

// ownerFootprint is the gather-cache footprint of the tenant's owner
// summaries: each owner's serialized summary plus its decoded sample
// list, the two things the cache keeps per owner.
func (f *fleet) ownerFootprint(tenant string) (int64, error) {
	var total int64
	for _, eng := range f.engines(tenant) {
		s, err := eng.Snapshot()
		if err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := saveSummary(&buf, s.Summary); err != nil {
			return 0, err
		}
		total += int64(buf.Len()) + int64(s.Summary.SampleCount())*8
	}
	return total, nil
}

// summaryOf downloads the tenant's merged summary through opaqclient.
func (f *fleet) summaryOf(tenant string) ([]byte, error) {
	q := opaqclient.NewQuery(f.url, opaqclient.Options{Tenant: tenant, HTTPClient: f.admin})
	ans, err := q.Summary()
	if err != nil {
		return nil, err
	}
	if ans.Partial {
		return nil, errors.New("partial summary")
	}
	return ans.Bytes, nil
}
