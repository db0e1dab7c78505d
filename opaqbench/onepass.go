package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"opaq/internal/core"
	"opaq/internal/datagen"
	"opaq/internal/runio"
)

// onepass_disk sizes. The run file is 16× the memory budget PlanConfig
// plans within, so the build is the paper's one pass over disk-resident
// data; after the first write the file sits in the page cache, which
// keeps the figures steady and makes the build CPU- and copy-bound.
const (
	onepassKeys     = 1 << 24 // 16M int64 keys: a 128 MiB run file
	onepassDistinct = 1 << 16 // Zipf universe; the oracle holds one count per key
	onepassMemElems = 1 << 20 // PlanConfig's memory budget M
	answerQ         = 1000    // each answer set is the 999 permilles
	setupReps       = 3       // setups per run; setup_s is their median
)

func zipfStream(seed int64) (*datagen.Zipf, error) {
	return datagen.NewZipf(seed, onepassDistinct, datagen.DefaultZipfParam)
}

func runOnepass(c runCfg) (*result, error) {
	res := newResult()
	path := filepath.Join(c.dir, "onepass.run")
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		z, err := zipfStream(c.seed)
		if err != nil {
			return nil, err
		}
		if err := runio.WriteFileFunc(path, runio.Int64Codec{}, onepassKeys, func(int64) int64 { return z.Next() }); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	res.metrics["setup_s"] = median(setups)

	ds, err := runio.OpenFile(path, runio.Int64Codec{})
	if err != nil {
		return nil, err
	}
	plan, err := core.PlanConfig(onepassKeys, onepassMemElems, answerQ)
	if err != nil {
		return nil, err
	}
	cfg := plan.Config
	cfg.Workers = runtime.NumCPU()
	cfg.Seed = c.seed
	res.lines = append(res.lines, fmt.Sprintf("plan: m=%d s=%d runs=%d memory=%d elems, workers=%d",
		cfg.RunLen, cfg.SampleSize, plan.Runs, plan.MemoryElems, cfg.Workers))

	resetPeakRSS()
	// Each op is one BuildFromDataset over the file plus the percentile
	// answers. A traced run alternates untraced and traced builds.
	var (
		ops, tracedOps    latencies
		rates             []float64
		readNs, readBytes int64
		first             []core.Bounds[int64]
		sum               *core.Summary[int64]
	)
	start := time.Now()
	for i := 0; ; i++ {
		traced := c.trace && i%2 == 1
		var d runio.Dataset[int64] = ds
		var td *timedDataset
		if traced {
			td = &timedDataset{Dataset: ds}
			d = td
		}
		t := time.Now()
		s, err := core.BuildFromDataset(d, cfg)
		var qs []core.Bounds[int64]
		if err == nil {
			qs, err = s.Quantiles(answerQ)
		}
		el := time.Since(t)
		res.attempted++
		if err != nil {
			res.failed++
			res.fail("build %d: %v", i, err)
			break
		}
		ms := float64(el) / 1e6
		if traced {
			tracedOps.add(ms)
			readNs += td.readNs.Load()
			readBytes += td.bytes.Load()
		} else {
			ops.add(ms)
			rates = append(rates, float64(s.N())/el.Seconds())
		}
		if first == nil {
			first, sum = qs, s
		} else if !slices.Equal(qs, first) {
			res.fail("build %d answered differently from build 0 on the same file", i)
		}
		if time.Since(start) >= c.seconds && (!c.trace || tracedOps.count() > 0) {
			break
		}
	}
	res.metrics["work_per_s"] = median(rates)
	res.metrics["core.build_elems_per_s"] = median(rates)
	res.metrics["op_p50_ms"], _ = ops.p(0.5)
	res.samples["op_p50_ms"] = ops.count()
	res.samples["core.build_elems_per_s"] = len(rates)
	if sum == nil {
		return res, nil
	}
	res.metrics["core.error_bound_ranks"] = float64(sum.ErrorBound())
	res.metrics["core.summary_samples"] = float64(sum.SampleCount())
	var cw countingWriter
	if err := saveSummary(&cw, sum); err != nil {
		return nil, err
	}
	res.metrics["summary_bytes_per_elem"] = float64(cw.n) / float64(sum.N())
	if c.trace && tracedOps.count() > 0 {
		n := float64(tracedOps.count())
		res.metrics["runio.read_s"] = float64(readNs) / 1e9 / n
		res.metrics["runio.read_mb_per_s"] = float64(readBytes) / 1e6 / (float64(readNs) / 1e9)
		res.metrics["core.build_compute_s"] = mean(tracedOps.ms)/1e3 - res.metrics["runio.read_s"]
		res.metrics["trace.overhead_pct"] = (mean(tracedOps.ms)/mean(ops.ms) - 1) * 100
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()

	// Correctness, untimed: regenerate the stream from the seed into
	// per-key counts and check every percentile enclosure.
	z, err := zipfStream(c.seed)
	if err != nil {
		return nil, err
	}
	counts := make(map[int64]int64, onepassDistinct)
	for i := 0; i < onepassKeys; i++ {
		counts[z.Next()]++
	}
	o := countOracle(counts)
	if o.n() != sum.N() {
		res.fail("summary holds n=%d, the file %d", sum.N(), o.n())
	}
	var chk checker
	for _, b := range first {
		chk.enclosure(o, b.Phi, fmt.Sprint(b.Lower), fmt.Sprint(b.Upper))
	}
	if chk.misses > 0 {
		res.fail("%d of %d enclosures miss; first: %v", chk.misses, chk.checked, chk.first)
	}
	res.metrics["rank_err_max"] = chk.rerMax
	return res, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
