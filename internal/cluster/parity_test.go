package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"opaq/internal/engine"
	"opaq/internal/runio"
)

// fleetOnlyFields are the read-answer fields only a coordinator can fill
// meaningfully; everything else must match a single engine exactly.
var fleetOnlyFields = []string{"partial", "owners", "down"}

// TestReadSurfaceParity asks every read route the same question two ways —
// through a coordinator over three workers and through one local engine
// handler fed the same run-aligned stream — and diffs the status and the
// whole decoded body, modulo the fleet-only fields. It covers answers and
// every error path: bad and out-of-range parameters, an empty tenant and
// an unknown one. Mergeability makes the two routes equivalent queries
// (the summaries are byte-identical), so any difference is surface drift.
func TestReadSurfaceParity(t *testing.T) {
	workers := []*testWorker{newTestWorker(t), newTestWorker(t), newTestWorker(t)}
	coord := testCoordinator(t, 2, workers...)
	t.Cleanup(coord.Close)
	reg, err := engine.NewRegistry(engine.RegistryOptions[int64]{
		Defaults: testWorkerDefaults(),
		Codec:    runio.Int64Codec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	surfaces := map[string]http.Handler{
		"coordinator": coord.Handler(),
		"engine":      engine.NewRegistryHandler(reg, engine.Int64Key, engine.HandlerOptions{}),
	}

	for _, h := range surfaces {
		for _, tenant := range []string{"metrics", "empty"} {
			if status, out := doJSON(t, h, http.MethodPost, "/admin/tenants",
				[]byte(fmt.Sprintf(`{"name":%q}`, tenant))); status != http.StatusCreated {
				t.Fatalf("create %s: status %d %v", tenant, status, out)
			}
		}
	}
	var next int64 = 1
	for i := 0; i < 6; i++ {
		batch := runAlignedBatch(512, 1+i%3, &next)
		for _, h := range surfaces {
			ingestJSON(t, h, "metrics", batch)
		}
	}

	queries := []string{
		"/quantile?phi=0", "/quantile?phi=0.01", "/quantile?phi=0.5",
		"/quantile?phi=0.99", "/quantile?phi=1",
		"/quantile?phi=abc", "/quantile?phi=2", "/quantile",
		"/quantiles?q=10", "/quantiles?q=0", "/quantiles?q=4097",
		"/selectivity?a=0&b=549755813888", "/selectivity?a=1000&b=zzz",
		"/selectivity?a=549755813888&b=0",
		"/summary",
	}
	decode := func(rec *recorder) map[string]any {
		var out map[string]any
		if err := json.Unmarshal(rec.body.Bytes(), &out); err != nil {
			t.Fatalf("undecodable JSON body %q: %v", rec.body.String(), err)
		}
		return out
	}
	for _, prefix := range []string{"/t/metrics", "/t/empty", "/t/nosuch", ""} {
		for _, q := range queries {
			path := prefix + q
			c := doRaw(t, surfaces["coordinator"], http.MethodGet, path, "", nil)
			e := doRaw(t, surfaces["engine"], http.MethodGet, path, "", nil)
			if c.status != e.status {
				t.Errorf("%s: coordinator status %d (%s) vs engine %d (%s)",
					path, c.status, c.body.String(), e.status, e.body.String())
				continue
			}
			if ct := e.header.Get("Content-Type"); ct != "application/json" {
				// /summary's 200 body is summary bytes, not JSON.
				if c.header.Get("Content-Type") != ct || !bytes.Equal(c.body.Bytes(), e.body.Bytes()) {
					t.Errorf("%s: coordinator %q body (%d bytes) vs engine %q body (%d bytes)",
						path, c.header.Get("Content-Type"), c.body.Len(), ct, e.body.Len())
				}
				if c.header.Get("X-Opaq-Partial") != "false" || e.header.Get("X-Opaq-Partial") != "false" {
					t.Errorf("%s: X-Opaq-Partial coordinator %q, engine %q; want false on both",
						path, c.header.Get("X-Opaq-Partial"), e.header.Get("X-Opaq-Partial"))
				}
				continue
			}
			outC, outE := decode(c), decode(e)
			if c.status == http.StatusOK && (outC["partial"] != false || outE["partial"] != false) {
				t.Errorf("%s: partial coordinator %v, engine %v; want false on both",
					path, outC["partial"], outE["partial"])
			}
			for _, k := range fleetOnlyFields {
				delete(outC, k)
				delete(outE, k)
			}
			if !reflect.DeepEqual(outC, outE) {
				t.Errorf("%s (status %d): coordinator %v vs engine %v", path, c.status, outC, outE)
			}
		}
	}
}

// TestGatherCacheHistogramReuse pins the histogram half of the gather
// cache: repeated /selectivity queries against an unchanged fleet are
// gather-cache hits served from the one histogram built beside the cached
// merge — float-identical answers, no rebuild — and the first query after
// another ingest reflects it (read-your-writes), matching a local engine
// fed the same stream.
func TestGatherCacheHistogramReuse(t *testing.T) {
	workers := []*testWorker{newTestWorker(t), newTestWorker(t), newTestWorker(t)}
	coord := testCoordinator(t, 2, workers...)
	t.Cleanup(coord.Close)
	h := coord.Handler()
	local, err := engine.New[int64](testWorkerDefaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	if status, out := doJSON(t, h, http.MethodPost, "/admin/tenants", []byte(`{"name":"metrics"}`)); status != http.StatusCreated {
		t.Fatalf("create: status %d %v", status, out)
	}
	ingest := func(batch []int64) {
		t.Helper()
		ingestJSON(t, h, "metrics", batch)
		if err := local.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	var next int64 = 1
	for i := 0; i < 4; i++ {
		ingest(runAlignedBatch(512, 1, &next))
	}

	const lo, hi = 0, int64(1) << 39
	path := fmt.Sprintf("/t/metrics/selectivity?a=%d&b=%d", lo, hi)
	selectivity := func() map[string]any {
		t.Helper()
		status, out := doJSON(t, h, http.MethodGet, path, nil)
		if status != http.StatusOK {
			t.Fatalf("selectivity: status %d %v", status, out)
		}
		return out
	}
	matchesLocal := func(out map[string]any) {
		t.Helper()
		sel, est, maxErr, err := local.RangeEstimate(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if out["selectivity"] != sel || out["estimate"] != est || out["max_abs_error"] != maxErr {
			t.Fatalf("coordinator %v vs local (%v, %v, %v)", out, sel, est, maxErr)
		}
	}
	cachedHist := func() any {
		t.Helper()
		g, err := coord.gather(context.Background(), "metrics")
		if err != nil {
			t.Fatal(err)
		}
		return g.snap.Hist
	}

	first := selectivity()
	matchesLocal(first)
	hist := cachedHist()
	hits := coord.gatherHits.Load()
	for i := 0; i < 5; i++ {
		if out := selectivity(); !reflect.DeepEqual(out, first) {
			t.Fatalf("repeat %d on an unchanged fleet: %v, first %v", i, out, first)
		}
	}
	if got := coord.gatherHits.Load(); got < hits+5 {
		t.Fatalf("gather_hits %d after 5 repeats from %d: repeats were not cache hits", got, hits)
	}
	if cachedHist() != hist {
		t.Fatal("histogram rebuilt on an unchanged fleet")
	}

	// One more ingest, every key inside the queried range: the very next
	// answer must count it.
	misses := coord.gatherMisses.Load()
	batch := make([]int64, 512)
	for i := range batch {
		batch[i] = int64(i) * 1000
	}
	ingest(batch)
	after := selectivity()
	if after["estimate"].(float64) <= first["estimate"].(float64) {
		t.Fatalf("estimate %v after ingesting 512 in-range keys, was %v", after["estimate"], first["estimate"])
	}
	matchesLocal(after)
	if coord.gatherMisses.Load() == misses {
		t.Fatal("post-ingest selectivity served from the stale cached merge")
	}
}
