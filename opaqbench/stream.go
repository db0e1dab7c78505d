package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"opaq/internal/cluster"
	"opaq/internal/core"
	"opaq/internal/engine"
	"opaq/internal/runio"
	"opaq/opaqclient"
)

// frameBatch is the batch the bulk writers send: opaqclient's default,
// one 64 KiB frame of int64 keys.
const frameBatch = opaqclient.DefaultMaxBatch

// keyPool is n seeded Zipf keys. The fleet workloads cycle through
// pools made in advance, so the client side spends no time generating
// keys and the oracle stays exact at any stream length.
func keyPool(seed int64, n int) ([]int64, error) {
	z, err := zipfStream(seed)
	if err != nil {
		return nil, err
	}
	pool := make([]int64, n)
	for i := range pool {
		pool[i] = z.Next()
	}
	return pool, nil
}

// streamClient drives one opaqclient HTTP client through its key pool,
// one MaxBatch batch (one frame, one round trip) per send. Element j of
// its stream is pool[j mod len(pool)], and the client acks a prefix of
// the stream, so the oracle needs only the acked count.
type streamClient struct {
	cl    *opaqclient.Client[int64]
	ct    *clientTransport
	pool  []int64
	batch int
	next  int
	sent  int64
	// acked is the read-your-writes watermark: elements of this stream
	// acknowledged so far.
	acked        atomic.Int64
	backpressure int64
}

func newStreamClient(f *fleet, tenant string, pool []int64, batch int) *streamClient {
	hc, ct := f.clientHTTP()
	cl := opaqclient.NewHTTP(f.url, runio.Int64Codec{}, opaqclient.Options{
		Tenant: tenant, MaxBatch: batch, HTTPClient: hc,
	})
	return &streamClient{cl: cl, ct: ct, pool: pool, batch: batch}
}

// send hands the next batch to the client, which flushes it. On an
// error the client keeps the unacked elements buffered and resends them
// first on the next send.
func (s *streamClient) send() error {
	nb := len(s.pool) / s.batch
	i := s.next % nb
	s.next++
	b := s.pool[i*s.batch : (i+1)*s.batch]
	end := s.ct.startOp("ingest", int64(len(b)))
	err := s.cl.AddBatch(b)
	end()
	s.sent += int64(len(b))
	s.acked.Store(s.sent - int64(s.cl.Buffered()))
	var bp *opaqclient.Backpressure
	if errors.As(err, &bp) {
		s.backpressure++
	}
	return err
}

// close flushes what is buffered and fixes the acked count.
func (s *streamClient) close() error {
	err := s.cl.Close()
	s.acked.Store(s.sent - int64(s.cl.Buffered()))
	return err
}

// weights adds the stream's acked prefix to an oracle's items.
func (s *streamClient) weights(items []weighted) []weighted {
	return poolWeights(items, s.pool, s.acked.Load())
}

// poolWeights adds the first n elements of the stream that cycles
// through pool.
func poolWeights(items []weighted, pool []int64, n int64) []weighted {
	full, rem := n/int64(len(pool)), n%int64(len(pool))
	for j, v := range pool {
		w := full
		if int64(j) < rem {
			w++
		}
		items = append(items, weighted{v, w})
	}
	return items
}

// phases splits a run's ops into untraced and traced ones. In a traced
// run a toggler switches tracing on and off every 250 ms, so both halves
// see the same fleet state and the gap between them is the tracing
// overhead.
type phases struct {
	untraced, traced latencies
}

func (p *phases) add(traced bool, ms float64) {
	if traced {
		p.traced.add(ms)
	} else {
		p.untraced.add(ms)
	}
}

func (p *phases) meta(workload string, ingestElems int64) traceMeta {
	return traceMeta{
		Workload: workload, IngestElems: ingestElems,
		UntracedMs: mean(p.untraced.ms), TracedMs: mean(p.traced.ms),
	}
}

// background runs the traced run's helpers until stop: the tracing
// toggler and a sampler of engine backlog and ring depth.
type background struct {
	stop       chan struct{}
	wg         sync.WaitGroup
	pendingMax atomic.Int64
	ringMax    atomic.Int64
}

func startBackground(tr *tracer, engines []*engine.Engine[int64]) *background {
	b := &background{stop: make(chan struct{})}
	if tr == nil {
		return b
	}
	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-b.stop:
				tr.on.Store(false)
				return
			case <-t.C:
				tr.on.Store(!tr.on.Load())
			}
		}
	}()
	go func() {
		defer b.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for tick := 0; ; tick++ {
			select {
			case <-b.stop:
				return
			case <-t.C:
			}
			for _, eng := range engines {
				if p := eng.PendingElems(); p > b.pendingMax.Load() {
					b.pendingMax.Store(p)
				}
				// Stats takes the engine's epoch lock; sample it rarely.
				if tick%50 == 0 {
					if d := int64(eng.Stats().Epochs); d > b.ringMax.Load() {
						b.ringMax.Store(d)
					}
				}
			}
		}
	}()
	return b
}

func (b *background) close() {
	close(b.stop)
	b.wg.Wait()
}

// engineTotals sums the engine counters the per-layer metrics take
// deltas of.
type engineTotals struct{ seals, compactions, merges, prefixHits float64 }

func sumEngines(engines []*engine.Engine[int64]) engineTotals {
	var t engineTotals
	for _, eng := range engines {
		st := eng.Stats()
		t.seals += float64(st.SealedEpochs)
		t.compactions += float64(st.Compactions)
		t.merges += float64(st.Merges)
		t.prefixHits += float64(st.PrefixHits)
	}
	return t
}

// layerCounters records the per-layer counters that come from the
// program's own stats rather than from spans, as deltas over the
// measured phase.
func layerCounters(res *result, f *fleet, tenants []string, policy engine.EpochPolicy,
	e0 engineTotals, c0 map[string]float64, bg *background) error {
	var engines []*engine.Engine[int64]
	for _, t := range tenants {
		engines = append(engines, f.engines(t)...)
	}
	e1 := sumEngines(engines)
	c1, err := f.cacheCounters(tenants[0])
	if err != nil {
		return err
	}
	// Taking the footprint cuts snapshots, so it comes after the counters.
	var footprint int64
	for _, t := range tenants {
		fp, err := f.ownerFootprint(t)
		if err != nil {
			return err
		}
		footprint += fp
	}
	res.metrics["engine.seals"] = e1.seals - e0.seals
	res.metrics["engine.compactions"] = e1.compactions - e0.compactions
	res.metrics["engine.rebuilds"] = e1.merges - e0.merges
	res.metrics["engine.prefix_hit_ratio"] = ratio(e1.prefixHits-e0.prefixHits, e1.merges-e0.merges)
	res.metrics["engine.ring_depth_max"] = float64(bg.ringMax.Load())
	res.metrics["engine.pending_max_ratio"] = ratio(float64(bg.pendingMax.Load()), float64(policy.MaxElems))
	hits, misses := c1["gather_hits"]-c0["gather_hits"], c1["gather_misses"]-c0["gather_misses"]
	res.metrics["cluster.merge_reuse_ratio"] = ratio(hits, hits+misses)
	res.metrics["cluster.singleflight_shared"] = c1["gather_singleflight"] - c0["gather_singleflight"]
	res.metrics["cluster.cache_footprint_ratio"] = float64(footprint) / cluster.DefaultGatherCacheBytes
	return nil
}

// quantilesAnswer is the body of GET /quantiles.
type quantilesAnswer struct {
	Quantiles []opaqclient.QuantileAnswer `json:"quantiles"`
	Partial   bool                        `json:"partial"`
}

// getQuantiles asks the tenant's q−1 equally spaced quantiles; opaqclient
// has no call for the /quantiles route.
func getQuantiles(hc *http.Client, base, tenant string, q int) (quantilesAnswer, error) {
	var out quantilesAnswer
	resp, err := hc.Get(base + "/t/" + url.PathEscape(tenant) + "/quantiles?q=" + strconv.Itoa(q))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("quantiles: http %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// finalCheck is the correctness pass after the clients closed: the
// tenant's n must equal the acked count and every percentile enclosure
// must hold the exact quantile. It returns the largest RER_A and the
// tenant's serialized summary.
func finalCheck(res *result, f *fleet, tenant string, o *oracle) (rer float64, raw []byte, err error) {
	st, err := opaqclient.NewQuery(f.url, opaqclient.Options{Tenant: tenant, HTTPClient: f.admin}).Stats()
	if err != nil {
		return 0, nil, err
	}
	if st.N != o.n() || st.Partial {
		res.fail("tenant %s: /stats n=%d (partial %v), acked %d", tenant, st.N, st.Partial, o.n())
	}
	qa, err := getQuantiles(f.admin, f.url, tenant, answerQ)
	if err != nil {
		return 0, nil, err
	}
	var chk checker
	for _, a := range qa.Quantiles {
		chk.enclosure(o, a.Phi, a.Lower, a.Upper)
	}
	if chk.misses > 0 || len(qa.Quantiles) != answerQ-1 {
		res.fail("tenant %s: %d of %d enclosures miss; first: %v", tenant, chk.misses, chk.checked, chk.first)
	}
	raw, err = f.summaryOf(tenant)
	return chk.rerMax, raw, err
}

// setupFleet starts a fleet and prepares it setupReps times, keeping the
// last one; setup_s is the median of the repetitions.
func setupFleet(res *result, tr *tracer, policy engine.EpochPolicy, prepare func(*fleet) error) (*fleet, error) {
	var times []float64
	var f *fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
			// Collect the discarded fleet so each repetition, and the
			// measured phase after the last, starts from the same heap.
			runtime.GC()
		}
		t := time.Now()
		var err error
		if f, err = startFleet(policy, tr); err != nil {
			return nil, err
		}
		if err := prepare(f); err != nil {
			f.close()
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	res.metrics["setup_s"] = median(times)
	runtime.GC()
	resetPeakRSS()
	return f, nil
}

// sendN sends n batches in a closed loop.
func (s *streamClient) sendN(n int) error {
	for i := 0; i < n; i++ {
		if err := s.send(); err != nil {
			return err
		}
	}
	return nil
}

func newTracerIf(on bool) *tracer {
	if on {
		return newTracer()
	}
	return nil
}

// closeAndCheck closes the writer (flushing anything buffered), takes
// peak RSS, and runs the correctness pass on a single-tenant workload.
func closeAndCheck(res *result, f *fleet, tenant string, s *streamClient) error {
	res.metrics["opaqclient.journaled"] = float64(s.cl.Journaled())
	if err := s.close(); err != nil {
		res.failed++
		res.lines = append(res.lines, fmt.Sprintf("client close: %v", err))
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	o := newOracle(s.weights(nil))
	rer, raw, err := finalCheck(res, f, tenant, o)
	if err != nil {
		return err
	}
	res.metrics["rank_err_max"] = rer
	res.metrics["summary_bytes_per_elem"] = float64(len(raw)) / float64(o.n())
	return summaryShape(res, raw)
}

// summaryShape adds one served summary to the core metrics: samples
// summed over tenants, the largest error bound.
func summaryShape(res *result, raw []byte) error {
	s, err := core.LoadSummary(bytes.NewReader(raw), runio.Int64Codec{})
	if err != nil {
		return err
	}
	res.metrics["core.error_bound_ranks"] = max(res.metrics["core.error_bound_ranks"], float64(s.ErrorBound()))
	res.metrics["core.summary_samples"] += float64(s.SampleCount())
	return nil
}
