// Command opaqbench is the opaq benchmark. It runs one workload for a
// fixed time, checks every answer it timed against an exact oracle
// regenerated from the seed, and prints the run's metrics, ending with
// one JSON line:
//
//	bash opaqbench/run.sh --workload onepass_disk --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans at
// every layer boundary, writes them to a span file and reports the
// per-layer metrics. Two more modes help tune the benchmark:
//
//	opaqbench --reduce <span file>              per-layer report of a traced run
//	opaqbench --steady 5 --workload fleet_mixed  medians and quartile spreads over 5 seeds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, reported by every
// workload with tracing off. The unit of work is the workload's: elements
// summarized (onepass_disk) or queries answered (fleet_mixed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"rank_err_max", "fraction"},
	{"summary_bytes_per_elem", "B/elem"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics; a metric a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"core.build_elems_per_s", "elems/s"},
	{"runio.read_s", "s"},
	{"runio.read_mb_per_s", "MB/s"},
	{"core.build_compute_s", "s"},
	{"core.error_bound_ranks", "count"},
	{"core.summary_samples", "count"},
	{"opaqclient.ingest_elems_per_s", "elems/s"},
	{"opaqclient.ingest_p50_ms", "ms"},
	{"opaqclient.ingest_p99_ms", "ms"},
	{"opaqclient.quantile_p50_ms", "ms"},
	{"opaqclient.quantile_p99_ms", "ms"},
	{"opaqclient.selectivity_p50_ms", "ms"},
	{"opaqclient.selectivity_p99_ms", "ms"},
	{"opaqclient.queries_per_s", "1/s"},
	{"opaqclient.self_ns_per_elem", "ns"},
	{"opaqclient.roundtrip_ms_p50", "ms"},
	{"opaqclient.roundtrip_ms_p99", "ms"},
	{"opaqclient.query_self_us_p50", "us"},
	{"opaqclient.backpressure", "count"},
	{"opaqclient.journaled", "count"},
	{"cluster.ingest_self_ms_p50", "ms"},
	{"cluster.ingest_self_ms_p99", "ms"},
	{"cluster.relay_ms_p50", "ms"},
	{"cluster.relay_ms_p99", "ms"},
	{"cluster.worker_attempts", "count"},
	{"cluster.worker_failed", "count"},
	{"cluster.fanout_wait_ms_p50", "ms"},
	{"cluster.fanout_wait_ms_p99", "ms"},
	{"cluster.query_self_ms_p50", "ms"},
	{"cluster.query_self_ms_p99", "ms"},
	{"cluster.fetch_200", "count"},
	{"cluster.fetch_304", "count"},
	{"cluster.revalidate_ratio", "ratio"},
	{"cluster.fetch_bytes_per_query", "B"},
	{"cluster.merge_reuse_ratio", "ratio"},
	{"cluster.singleflight_shared", "count"},
	{"cluster.cache_footprint_ratio", "ratio"},
	{"engine.ingest_ms_p50", "ms"},
	{"engine.ingest_ms_p99", "ms"},
	{"engine.ingest_ns_per_elem", "ns"},
	{"engine.summary_ms_p50", "ms"},
	{"engine.summary_ms_p99", "ms"},
	{"engine.summary_304_us_p50", "us"},
	{"engine.sheds_429", "count"},
	{"engine.seals", "count"},
	{"engine.compactions", "count"},
	{"engine.ring_depth_max", "count"},
	{"engine.rebuilds", "count"},
	{"engine.prefix_hit_ratio", "ratio"},
	{"engine.pending_max_ratio", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.offered_elems_per_s", "elems/s"},
	{"trace.overhead_pct", "%"},
	{"trace.parents_by_containment", "count"},
	{"trace.spans", "count"},
}

// runCfg is one run's parameters.
type runCfg struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory, removed after the run
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	// samples is the sample count behind a latency metric, printed next
	// to it.
	samples map[string]int
	// lines are extra human-readable report lines.
	lines []string
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}, samples: map[string]int{}}
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.lines = append(r.lines, "CORRECTNESS: "+fmt.Sprintf(format, args...))
}

// latency reports the median and p99 of l under name_p50_ms and
// name_p99_ms, recording sample counts; a p99 without minBeyond samples
// beyond it is flagged.
func (r *result) latency(name string, l *latencies) {
	p50, _ := l.p(0.5)
	p99, ok := l.p(0.99)
	r.metrics[name+"_p50_ms"] = p50
	r.metrics[name+"_p99_ms"] = p99
	r.samples[name+"_p50_ms"] = l.count()
	r.samples[name+"_p99_ms"] = l.count()
	if !ok && l.count() > 0 {
		r.lines = append(r.lines, fmt.Sprintf("note: %s_p99_ms has %d samples, fewer than %d beyond p99",
			name, l.count(), minBeyond))
	}
}

var workloads = map[string]func(runCfg) (*result, error){
	"onepass_disk": runOnepass,
	"fleet_mixed":  runFleetMixed,
}

func main() {
	workload := flag.String("workload", "", "workload: onepass_disk or fleet_mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	reduceFile := flag.String("reduce", "", "print the per-layer report of a span file and exit")
	steady := flag.Int("steady", 0, "run the workload this many times, one seed each, and report spreads")
	flag.Parse()

	if *reduceFile != "" {
		if err := reduceMain(*reduceFile, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "opaqbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "opaqbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadyMain(*workload, *steady, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "opaqbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := runMain(*workload, run, runCfg{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "opaqbench:", err)
		os.Exit(1)
	}
}

// workRoot is where runs keep scratch files and span files: the build
// directory of the checkout the benchmark runs from.
const workRoot = ".bench_build"

func runMain(name string, run func(runCfg) (*result, error), c runCfg) error {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c.dir = dir
	res, err := run(c)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", name, c.seed, c.seconds.Seconds(), c.trace)
	for _, l := range res.lines {
		fmt.Fprintln(out, l)
	}
	report := map[string]any{}
	for _, d := range defs {
		v := res.metrics[d.name]
		line := fmt.Sprintf("%-34s %14.6g %s", d.name, v, d.unit)
		if n, ok := res.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(out, line)
		report[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if !c.trace {
		// The client-observed latencies behind the generic end-to-end
		// metrics, by route, with their sample counts.
		var names []string
		for k := range res.metrics {
			if strings.HasPrefix(k, "opaqclient.") || strings.HasPrefix(k, "core.") || strings.HasPrefix(k, "loadgen.") {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		for _, k := range names {
			line := fmt.Sprintf("  %-32s %14.6g", k, res.metrics[k])
			if n, ok := res.samples[k]; ok {
				line += fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Fprintln(out, line)
		}
	}
	buf, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   report,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(buf))
	return out.Flush()
}

// reduceMain prints the per-layer report of a span file.
func reduceMain(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	meta, spans, err := readSpans(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	rep := reduce(meta, spans)
	fmt.Fprintf(w, "workload %s: %d spans\n", meta.Workload, len(spans))
	for _, l := range rep.text {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-34s %14.6g\n", k, rep.metrics[k])
	}
	return nil
}

// finishTrace writes the span file of a traced run next to the build
// output, reduces it and merges the per-layer metrics into res.
func finishTrace(res *result, tr *tracer, meta traceMeta) error {
	tr.mu.Lock()
	spans := tr.spans
	tr.spans = nil
	tr.mu.Unlock()
	dir := filepath.Join(workRoot, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, meta.Workload+".spans")
	if err := writeSpans(path, meta, spans); err != nil {
		return err
	}
	rep := reduce(meta, spans)
	for k, v := range rep.metrics {
		res.metrics[k] = v
	}
	res.lines = append(res.lines, "span file: "+path)
	res.lines = append(res.lines, rep.text...)
	return nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// peakRSSMB covers the measured phase rather than set-up. Where the
// kernel refuses, the mark stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func saveSummary(w io.Writer, s *core.Summary[int64]) error {
	return core.SaveSummary(w, s, runio.Int64Codec{})
}
