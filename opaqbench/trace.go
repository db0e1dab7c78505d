package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind is the layer boundary a span was recorded at.
type kind uint8

const (
	kClientOp kind = iota // one opaqclient call (AddBatch flush, Query method)
	kClientRT             // one HTTP round trip of the opaqclient http.Client
	kCoord                // the coordinator handler serving one request
	kOut                  // one coordinator → worker round trip (each retry is one)
	kWorker               // the worker handler serving one request
	numKinds
)

var kindNames = [numKinds]string{"client_op", "client_rt", "coord", "out", "worker"}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID, Parent uint64
	Kind       kind
	Route      string // last URL path element: ingest, quantile, summary, ...
	Status     int    // HTTP status; 0 for a transport error
	Start, End int64
	Elems      int64 // elements carried (client ingest ops)
	Bytes      int64 // response body bytes (round trips)
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	on    atomic.Bool // root spans start only while on
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// traceMeta is what the reducer needs besides the spans: the run's own
// counts and the untraced figures the overhead is measured against.
type traceMeta struct {
	Workload string
	// UntracedMs and TracedMs are the mean latency of the workload's
	// primary operation with tracing off and on, interleaved in time.
	UntracedMs, TracedMs float64
	// IngestElems is the number of elements acked while tracing was on.
	IngestElems int64
}

// writeSpans writes the span file: one meta line, then one
// tab-separated line per span.
func writeSpans(path string, meta traceMeta, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "#meta\t%s\t%g\t%g\t%d\n", meta.Workload, meta.UntracedMs, meta.TracedMs, meta.IngestElems)
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			s.ID, s.Parent, kindNames[s.Kind], s.Route, s.Status, s.Start, s.End, s.Elems, s.Bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans parses a file written by writeSpans.
func readSpans(r io.Reader) (traceMeta, []span, error) {
	var meta traceMeta
	var spans []span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		f := strings.Split(sc.Text(), "\t")
		if f[0] == "#meta" {
			if len(f) != 5 {
				return meta, nil, fmt.Errorf("line %d: bad meta line", line)
			}
			meta.Workload = f[1]
			meta.UntracedMs, _ = strconv.ParseFloat(f[2], 64)
			meta.TracedMs, _ = strconv.ParseFloat(f[3], 64)
			meta.IngestElems, _ = strconv.ParseInt(f[4], 10, 64)
			continue
		}
		if len(f) != 9 {
			return meta, nil, fmt.Errorf("line %d: want 9 fields, got %d", line, len(f))
		}
		var s span
		k := -1
		for i, name := range kindNames {
			if name == f[2] {
				k = i
			}
		}
		if k < 0 {
			return meta, nil, fmt.Errorf("line %d: unknown span kind %q", line, f[2])
		}
		s.Kind = kind(k)
		s.Route = f[3]
		nums := []*int64{&s.Start, &s.End, &s.Elems, &s.Bytes}
		var err error
		if s.ID, err = strconv.ParseUint(f[0], 10, 64); err == nil {
			s.Parent, err = strconv.ParseUint(f[1], 10, 64)
		}
		if err == nil {
			s.Status, err = strconv.Atoi(f[4])
		}
		for i := 0; err == nil && i < len(nums); i++ {
			*nums[i], err = strconv.ParseInt(f[5+i], 10, 64)
		}
		if err != nil {
			return meta, nil, fmt.Errorf("line %d: %v", line, err)
		}
		spans = append(spans, s)
	}
	return meta, spans, sc.Err()
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of its interval that its
// children cover.
func selfTime(s span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return (s.End - s.Start) - covered(s.Start, s.End, ivs)
}

// attributeOrphans gives every outbound span without a parent the
// coordinator span whose interval contains it; among several, the one
// that started last. The gather singleflight leader fans out under the
// coordinator's lifetime context, which carries no request span, so its
// worker fetches arrive here unparented. It returns how many spans it
// attributed.
func attributeOrphans(spans []span) int {
	var coords []int
	for i, s := range spans {
		if s.Kind == kCoord {
			coords = append(coords, i)
		}
	}
	sort.Slice(coords, func(a, b int) bool { return spans[coords[a]].Start < spans[coords[b]].Start })
	found := 0
	for i := range spans {
		s := &spans[i]
		if s.Kind != kOut || s.Parent != 0 {
			continue
		}
		// The last coordinator span starting at or before s, walking back
		// over the few that overlap it in time.
		j := sort.Search(len(coords), func(j int) bool { return spans[coords[j]].Start > s.Start }) - 1
		for steps := 0; j >= 0 && steps < 256; j, steps = j-1, steps+1 {
			if c := spans[coords[j]]; c.End >= s.End {
				s.Parent = c.ID
				found++
				break
			}
		}
	}
	return found
}

// layerReport is the reduction of one traced run.
type layerReport struct {
	metrics map[string]float64
	text    []string
}

// isQuery reports whether a route answers a read query.
func isQuery(route string) bool {
	return route == "quantile" || route == "quantiles" || route == "selectivity"
}

// reduce turns spans into per-layer self time, waiting and the traced
// per-layer metrics. It attributes orphan outbound spans first.
func reduce(meta traceMeta, spans []span) layerReport {
	byContainment := attributeOrphans(spans)
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	type agg struct {
		count       int
		total, self int64
	}
	layers := map[string]*agg{}
	var (
		clientIngestSelf, clientIngestElems  int64
		querySelfUs, rtMs                    latencies
		coordIngestSelf, relay               latencies
		fanout, coordQuerySelf               latencies
		workerIngest, summary200, summary304 latencies
		workerIngestNs                       int64
		attempts, failed, fetch200, fetch304 int
		fetchBytes                           int64
		coordQueries, sheds                  int
	)
	for _, s := range spans {
		kids := children[s.ID]
		self := selfTime(s, kids)
		key := kindNames[s.Kind] + "/" + s.Route
		a := layers[key]
		if a == nil {
			a = &agg{}
			layers[key] = a
		}
		a.count++
		a.total += s.End - s.Start
		a.self += self
		switch s.Kind {
		case kClientOp:
			if s.Route == "ingest" {
				clientIngestSelf += self
				clientIngestElems += s.Elems
			} else if isQuery(s.Route) {
				querySelfUs.add(float64(self) / 1e3)
			}
		case kClientRT:
			rtMs.add(ms(s.End - s.Start))
		case kCoord:
			switch {
			case s.Route == "ingest":
				coordIngestSelf.add(ms(self))
				relay.add(ms((s.End - s.Start) - self))
			case isQuery(s.Route):
				coordQueries++
				if len(kids) == 0 {
					// A singleflight follower: it waited on another
					// request's gather and fanned out nothing itself.
					break
				}
				first, last := kids[0].Start, kids[0].End
				for _, k := range kids {
					first, last = min(first, k.Start), max(last, k.End)
				}
				fanout.add(ms(last - first))
				coordQuerySelf.add(ms((s.End - s.Start) - (last - first)))
			}
		case kOut:
			attempts++
			if s.Status == 0 || s.Status >= 500 {
				failed++
			}
			if s.Route == "summary" {
				switch s.Status {
				case 200:
					fetch200++
				case 304:
					fetch304++
				}
				fetchBytes += s.Bytes
			}
		case kWorker:
			switch {
			case s.Route == "ingest":
				if s.Status == 429 {
					sheds++
				}
				workerIngest.add(ms(s.End - s.Start))
				workerIngestNs += s.End - s.Start
			case s.Route == "summary" && s.Status == 200:
				summary200.add(ms(s.End - s.Start))
			case s.Route == "summary" && s.Status == 304:
				summary304.add(ms(s.End-s.Start) * 1e3)
			}
		}
	}

	m := map[string]float64{}
	put := func(name string, l *latencies, q float64) {
		v, _ := l.p(q)
		m[name] = v
	}
	m["opaqclient.self_ns_per_elem"] = ratio(float64(clientIngestSelf), float64(clientIngestElems))
	put("opaqclient.roundtrip_ms_p50", &rtMs, 0.5)
	put("opaqclient.roundtrip_ms_p99", &rtMs, 0.99)
	put("opaqclient.query_self_us_p50", &querySelfUs, 0.5)
	put("cluster.ingest_self_ms_p50", &coordIngestSelf, 0.5)
	put("cluster.ingest_self_ms_p99", &coordIngestSelf, 0.99)
	put("cluster.relay_ms_p50", &relay, 0.5)
	put("cluster.relay_ms_p99", &relay, 0.99)
	m["cluster.worker_attempts"] = float64(attempts)
	m["cluster.worker_failed"] = float64(failed)
	put("cluster.fanout_wait_ms_p50", &fanout, 0.5)
	put("cluster.fanout_wait_ms_p99", &fanout, 0.99)
	put("cluster.query_self_ms_p50", &coordQuerySelf, 0.5)
	put("cluster.query_self_ms_p99", &coordQuerySelf, 0.99)
	m["cluster.fetch_200"] = float64(fetch200)
	m["cluster.fetch_304"] = float64(fetch304)
	m["cluster.revalidate_ratio"] = ratio(float64(fetch304), float64(fetch200+fetch304))
	m["cluster.fetch_bytes_per_query"] = ratio(float64(fetchBytes), float64(coordQueries))
	put("engine.ingest_ms_p50", &workerIngest, 0.5)
	put("engine.ingest_ms_p99", &workerIngest, 0.99)
	m["engine.ingest_ns_per_elem"] = ratio(float64(workerIngestNs), float64(meta.IngestElems))
	put("engine.summary_ms_p50", &summary200, 0.5)
	put("engine.summary_ms_p99", &summary200, 0.99)
	put("engine.summary_304_us_p50", &summary304, 0.5)
	m["engine.sheds_429"] = float64(sheds)
	m["trace.spans"] = float64(len(spans))
	m["trace.parents_by_containment"] = float64(byContainment)
	m["trace.overhead_pct"] = (ratio(meta.TracedMs, meta.UntracedMs) - 1) * 100

	var text []string
	keys := make([]string, 0, len(layers))
	for k := range layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	text = append(text, fmt.Sprintf("%-24s %9s %12s %12s %12s", "layer/route", "spans", "self_ms", "waiting_ms", "self_share"))
	for _, k := range keys {
		a := layers[k]
		text = append(text, fmt.Sprintf("%-24s %9d %12.1f %12.1f %11.1f%%",
			k, a.count, ms(a.self), ms(a.total-a.self), 100*ratio(float64(a.self), float64(a.total))))
	}
	text = append(text,
		fmt.Sprintf("parents found by interval containment: %d", byContainment),
		fmt.Sprintf("tracing overhead: %.1f%% (primary op %.4f ms untraced, %.4f ms traced)",
			m["trace.overhead_pct"], meta.UntracedMs, meta.TracedMs))
	return layerReport{metrics: m, text: text}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
