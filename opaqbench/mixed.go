package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"opaq/internal/engine"
	"opaq/opaqclient"
)

// fleet_mixed: one open-loop writer at a fixed rate well under the
// fleet's ingest capacity (10–19M keys/s from two closed-loop writers on
// a 2-CPU box), beside one closed-loop reader on the same tenant, so
// nearly every gather misses the cache.
const (
	mixedTenant     = "mixed"
	mixedBatch      = 1024
	mixedRate       = 1_000_000 // offered elements per second
	mixedPoolKeys   = 1 << 20
	mixedPreload    = 2 << 20 // elements acked during setup
	mixedEpochElems = 1 << 20
	mixedQuantilesQ = 10
)

func runFleetMixed(c runCfg) (*result, error) {
	res := newResult()
	policy := engine.EpochPolicy{MaxElems: mixedEpochElems}
	pool, err := keyPool(c.seed*100, mixedPoolKeys)
	if err != nil {
		return nil, err
	}
	tr := newTracerIf(c.trace)
	var writer *streamClient
	f, err := setupFleet(res, tr, policy, func(f *fleet) error {
		if err := f.createTenant(mixedTenant, nil); err != nil {
			return err
		}
		writer = newStreamClient(f, mixedTenant, pool, mixedBatch)
		return writer.sendN(mixedPreload / mixedBatch)
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	engines := f.engines(mixedTenant)
	e0 := sumEngines(engines)
	c0, err := f.cacheCounters(mixedTenant)
	if err != nil {
		return nil, err
	}
	acked0 := writer.acked.Load()
	hc, ct := f.clientHTTP()
	q := opaqclient.NewQuery(f.url, opaqclient.Options{Tenant: mixedTenant, HTTPClient: hc})

	bg := startBackground(tr, engines)
	start := time.Now()
	deadline := start.Add(c.seconds)
	var (
		wg                             sync.WaitGroup
		ingestLat                      phases
		late                           latencies
		offered, wAttempted, wFailed   int64
		tracedElems                    int64
		routeLat                       [3]phases
		queries                        phases
		qAttempted, qFailed, rywMisses int64
	)
	wg.Add(2)
	go func() {
		// The open loop: batch i is due at start + i·interval whether or
		// not earlier batches were acked, and its latency runs from then.
		defer wg.Done()
		sched := schedule{start: start, interval: time.Duration(float64(time.Second) * mixedBatch / mixedRate)}
		for i := 0; ; i++ {
			due := sched.due(i)
			if !due.Before(deadline) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			offered += mixedBatch
			traced := tr != nil && tr.on.Load()
			err := writer.send()
			lateMs, latMs := sinceDue(due, sent, time.Now())
			late.add(lateMs)
			wAttempted++
			if err != nil {
				wFailed++
				continue
			}
			ingestLat.add(traced, latMs)
			if traced {
				tracedElems += mixedBatch
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(c.seed))
		routes := [3]string{"quantile", "quantiles", "selectivity"}
		for k := 0; time.Now().Before(deadline); k++ {
			watermark := writer.acked.Load()
			traced := tr != nil && tr.on.Load()
			r := k % len(routes)
			phi := 0.01 + 0.98*rng.Float64()
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if a > b {
				a, b = b, a
			}
			t := time.Now()
			end := ct.startOp(routes[r], 0)
			var n int64 // the answer's n, or the largest n its rank allows
			var err error
			switch r {
			case 0:
				var ans opaqclient.QuantileAnswer
				if ans, err = q.Quantile(phi); err == nil {
					n, err = rankMaxN(ans.Rank, phi, ans.Partial)
				}
			case 1:
				var qa quantilesAnswer
				qa, err = getQuantiles(hc, f.url, mixedTenant, mixedQuantilesQ)
				if err == nil && len(qa.Quantiles) != mixedQuantilesQ-1 {
					err = fmt.Errorf("quantiles: %d answers for q=%d", len(qa.Quantiles), mixedQuantilesQ)
				}
				if err == nil {
					last := qa.Quantiles[len(qa.Quantiles)-1]
					n, err = rankMaxN(last.Rank, last.Phi, qa.Partial)
				}
			case 2:
				var sa opaqclient.SelectivityAnswer
				if sa, err = q.Selectivity(strconv.FormatInt(a, 10), strconv.FormatInt(b, 10)); err == nil {
					if sa.Partial {
						err = errors.New("partial answer")
					} else if sa.Selectivity > 0 {
						n = int64(sa.Estimate/sa.Selectivity + 0.5)
					} else {
						n = watermark
					}
				}
			}
			end()
			now := time.Now()
			qAttempted++
			if err == nil && n < watermark {
				rywMisses++
				err = fmt.Errorf("%s answered n=%d after %d elements were acked", routes[r], n, watermark)
			}
			if err != nil {
				qFailed++
				continue
			}
			ms := float64(now.Sub(t)) / 1e6
			routeLat[r].add(traced, ms)
			queries.add(traced, ms)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	bg.close()

	res.attempted = wAttempted + qAttempted
	res.failed = wFailed + qFailed
	if rywMisses > 0 {
		res.lines = append(res.lines, fmt.Sprintf("read-your-writes misses: %d", rywMisses))
	}
	res.metrics["work_per_s"] = float64(queries.untraced.count()+queries.traced.count()) / elapsed.Seconds()
	res.metrics["opaqclient.queries_per_s"] = res.metrics["work_per_s"]
	res.metrics["op_p50_ms"], _ = queries.untraced.p(0.5)
	res.samples["op_p50_ms"] = queries.untraced.count()
	res.latency("opaqclient.quantile", &routeLat[0].untraced)
	res.latency("opaqclient.selectivity", &routeLat[2].untraced)
	res.latency("opaqclient.ingest", &ingestLat.untraced)
	res.metrics["opaqclient.ingest_elems_per_s"] = float64(writer.acked.Load()-acked0) / elapsed.Seconds()
	res.metrics["opaqclient.backpressure"] = float64(writer.backpressure)
	res.metrics["loadgen.late_p99_ms"], _ = late.p(0.99)
	res.samples["loadgen.late_p99_ms"] = late.count()
	res.metrics["loadgen.offered_elems_per_s"] = float64(offered) / c.seconds.Seconds()
	if acked := res.metrics["opaqclient.ingest_elems_per_s"]; acked < 0.98*res.metrics["loadgen.offered_elems_per_s"] {
		res.lines = append(res.lines, fmt.Sprintf("note: the open loop fell behind: %.0f of %.0f offered elems/s acked",
			acked, res.metrics["loadgen.offered_elems_per_s"]))
	}
	if tr != nil {
		if err := layerCounters(res, f, []string{mixedTenant}, policy, e0, c0, bg); err != nil {
			return nil, err
		}
		if err := finishTrace(res, tr, queries.meta("fleet_mixed", tracedElems)); err != nil {
			return nil, err
		}
	}
	return res, closeAndCheck(res, f, mixedTenant, writer)
}

// schedule is an open loop's timetable: batch i is due at
// start + i·interval, whether or not earlier batches were acked.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// sinceDue accounts one open-loop batch: how late it was sent, and its
// latency counted from when it was due rather than when it was sent, so
// a stall is charged to every batch that queued behind it.
func sinceDue(due, sent, acked time.Time) (lateMs, latencyMs float64) {
	return float64(max(sent.Sub(due), 0)) / 1e6, float64(acked.Sub(due)) / 1e6
}

// rankMaxN is the largest n consistent with a φ-quantile answered at
// rank ⌈φ·n⌉: a smaller read-your-writes watermark than this cannot be
// shown violated. A partial answer is an error.
func rankMaxN(rank int64, phi float64, partial bool) (int64, error) {
	if partial {
		return 0, errors.New("partial answer")
	}
	return int64(float64(rank)/phi + 1e-6), nil
}
