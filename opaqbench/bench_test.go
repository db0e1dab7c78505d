package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"opaq/internal/metrics"
)

func TestPercentileTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond
		{999, 0.99, 990, false}, // only 9 beyond
		{1010, 0.99, 1000, true},
		{21, 0.5, 11, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		v, ok := percentile(mk(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("n=%d p=%g: got (%g, %v), want (%g, %v)", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample supports a percentile")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1.2, 1.5, 1.1, 1.9, 1.3, 1.4, 1.6, 2.5, 1.0, 1.25}, 1.175, 1.675},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: got (%g, %g), want (%g, %g)", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},  // overlaps the first: covered once
		{Start: 90, End: 120}, // clipped to the parent's end
		{Start: 200, End: 300},
	}
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("self = %d, want 100 - (40 + 10) = 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
}

func TestOrphanAttributionByContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kCoord, Start: 0, End: 100},
		{ID: 2, Kind: kCoord, Start: 50, End: 200},
		{ID: 3, Kind: kOut, Start: 60, End: 90},   // inside both: the later start wins
		{ID: 4, Kind: kOut, Start: 10, End: 40},   // inside 1 only
		{ID: 5, Kind: kOut, Start: 150, End: 210}, // outlives every coordinator span
		{ID: 6, Kind: kOut, Parent: 1, Start: 20, End: 30},
	}
	if n := attributeOrphans(spans); n != 2 {
		t.Errorf("attributed %d, want 2", n)
	}
	want := map[uint64]uint64{3: 2, 4: 1, 5: 0, 6: 1}
	for _, s := range spans {
		if p, ok := want[s.ID]; ok && s.Parent != p {
			t.Errorf("span %d: parent %d, want %d", s.ID, s.Parent, p)
		}
	}
}

func TestReduceLayers(t *testing.T) {
	spans := []span{
		{ID: 1, Kind: kClientOp, Route: "quantile", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Kind: kClientRT, Route: "quantile", Start: 100, End: 900},
		{ID: 3, Parent: 2, Kind: kCoord, Route: "quantile", Start: 200, End: 800},
		{ID: 4, Kind: kOut, Route: "summary", Status: 200, Start: 300, End: 500, Bytes: 1000},
		{ID: 5, Kind: kOut, Route: "summary", Status: 304, Start: 350, End: 600},
		{ID: 6, Parent: 4, Kind: kWorker, Route: "summary", Status: 200, Start: 320, End: 480},
	}
	rep := reduce(traceMeta{UntracedMs: 2, TracedMs: 2.2}, spans)
	m := rep.metrics
	checks := map[string]float64{
		"trace.parents_by_containment":  2,
		"cluster.fanout_wait_ms_p50":    300e-6, // first fetch start 300 to last end 600
		"cluster.query_self_ms_p50":     300e-6, // 600 - 300
		"opaqclient.query_self_us_p50":  0.2,    // 1000 - 800 ns
		"cluster.fetch_200":             1,
		"cluster.fetch_304":             1,
		"cluster.revalidate_ratio":      0.5,
		"cluster.fetch_bytes_per_query": 1000,
		"engine.summary_ms_p50":         160e-6,
		"cluster.worker_attempts":       2,
	}
	for k, want := range checks {
		if math.Abs(m[k]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, m[k], want)
		}
	}
	if got := m["trace.overhead_pct"]; math.Abs(got-10) > 1e-9 {
		t.Errorf("overhead = %g%%, want 10%%", got)
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/x.spans"
	meta := traceMeta{Workload: "w", UntracedMs: 1.5, TracedMs: 1.75, IngestElems: 42}
	spans := []span{{ID: 7, Parent: 3, Kind: kWorker, Route: "ingest", Status: 429, Start: 5, End: 9, Elems: 1, Bytes: 2}}
	if err := writeSpans(path, meta, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gotMeta, got, err := readSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta || len(got) != 1 || got[0] != spans[0] {
		t.Errorf("round trip: %+v %+v", gotMeta, got)
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	// One connection, a batch due every millisecond, and a 5 ms stall on
	// batch 0: batches 1..4 queue behind it and are charged from when
	// they were due, not from when they were finally sent.
	t0 := time.Unix(0, 0)
	sched := schedule{start: t0, interval: time.Millisecond}
	service := []time.Duration{5 * time.Millisecond, 100 * time.Microsecond, 100 * time.Microsecond,
		100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond}
	free := t0 // when the connection can send next
	var lats, lates []float64
	for i, svc := range service {
		due := sched.due(i)
		sent := due
		if free.After(sent) {
			sent = free
		}
		acked := sent.Add(svc)
		free = acked
		late, lat := sinceDue(due, sent, acked)
		lates = append(lates, late)
		lats = append(lats, lat)
	}
	wantLat := []float64{5, 4.1, 3.2, 2.3, 1.4, 0.5, 0.1}
	wantLate := []float64{0, 4, 3.1, 2.2, 1.3, 0.4, 0}
	for i := range wantLat {
		if math.Abs(lats[i]-wantLat[i]) > 1e-9 || math.Abs(lates[i]-wantLate[i]) > 1e-9 {
			t.Errorf("batch %d: latency %g late %g, want %g and %g", i, lats[i], lates[i], wantLat[i], wantLate[i])
		}
	}
}

func TestRankErrAgainstMetricsOracle(t *testing.T) {
	// Hand-checked cases: 1..10 once each, and a duplicated value.
	o := newOracle([]weighted{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 1}, {10, 1}})
	if e, ok := o.rankErr(5, 2, 6); !ok || math.Abs(e-0.2) > 1e-12 {
		t.Errorf("[2,6] around 5: err %g covered %v, want 2/10 (3 and 4 below) true", e, ok)
	}
	if e, ok := o.rankErr(5, 5, 5); !ok || e != 0 {
		t.Errorf("exact enclosure: err %g covered %v", e, ok)
	}
	if _, ok := o.rankErr(5, 6, 7); ok {
		t.Error("[6,7] reported to cover the rank-5 element 5")
	}
	d := newOracle([]weighted{{1, 4}, {2, 3}, {3, 1}, {4, 2}})
	if e, ok := d.rankErr(phiRank(0.5, 10), 1, 4); !ok || math.Abs(e-0.1) > 1e-12 {
		t.Errorf("duplicates: err %g covered %v, want 1/10 (one 3 above the truth 2)", e, ok)
	}

	// Randomized: over q−1 equally spaced enclosures the largest rank
	// error is internal/metrics' RER_N (in percent of n/q) rescaled to n.
	rng := rand.New(rand.NewSource(3))
	xs := make([]int64, 5000)
	counts := map[int64]int64{}
	for i := range xs {
		xs[i] = rng.Int63n(700)
		counts[xs[i]]++
	}
	co := countOracle(counts)
	ref := metrics.NewOracle(xs)
	const q = 20
	for trial := 0; trial < 50; trial++ {
		var encl []metrics.Enclosure[int64]
		var worst float64
		for i := 1; i < q; i++ {
			phi := float64(i) / q
			truth := ref.Quantile(phi)
			lo, hi := truth-rng.Int63n(30), truth+rng.Int63n(30)
			encl = append(encl, metrics.Enclosure[int64]{Phi: phi, Lower: lo, Upper: hi})
			e, ok := co.rankErr(phiRank(phi, co.n()), lo, hi)
			if !ok {
				t.Fatalf("phi=%g: [%d,%d] does not cover %d", phi, lo, hi, truth)
			}
			worst = max(worst, e)
		}
		rern, err := metrics.RERN(ref, encl)
		if err != nil {
			t.Fatal(err)
		}
		if want := rern / 100 / q; math.Abs(worst-want) > 1e-12 {
			t.Fatalf("trial %d: max rank error %g, RER_N rescaled %g", trial, worst, want)
		}
	}
}

func TestPoolWeightsCountTheAckedPrefix(t *testing.T) {
	pool := []int64{10, 20, 30, 40}
	o := newOracle(poolWeights(nil, pool, 10)) // 2 full cycles + 10, 20
	want := map[int64]int64{10: 3, 20: 3, 30: 2, 40: 2}
	for v, c := range want {
		if got := o.rankLE(v) - o.rankLT(v); got != c {
			t.Errorf("key %d: count %d, want %d", v, got, c)
		}
	}
	if o.n() != 10 {
		t.Errorf("n = %d, want 10", o.n())
	}
}

func TestRankMaxN(t *testing.T) {
	for _, n := range []int64{1, 7, 1000, 123457, 10_000_000} {
		for _, phi := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			rank := phiRank(phi, n)
			got, err := rankMaxN(rank, phi, false)
			if err != nil || got < n {
				t.Errorf("n=%d phi=%g rank=%d: max n %d below the true n", n, phi, rank, got)
			}
			if phiRank(phi, got) != rank && got != n {
				t.Errorf("n=%d phi=%g: max n %d answers rank %d, not %d", n, phi, got, phiRank(phi, got), rank)
			}
		}
	}
	if _, err := rankMaxN(5, 0.5, true); err == nil {
		t.Error("partial answer accepted")
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s: BENCHMARK.json has %v, the program reports %v", what, g, w)
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}
