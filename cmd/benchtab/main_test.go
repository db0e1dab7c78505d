package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"opaq/internal/experiments"
)

// writeBaseline stores metrics as a -json baseline file and returns its path.
func writeBaseline(t *testing.T, metrics []experiments.Metric) string {
	t.Helper()
	buf, err := json.Marshal(benchFile{Commit: "abc1234", Scale: 10, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func gated(name string, value float64, better string) experiments.Metric {
	return experiments.Metric{Name: name, Value: value, Unit: "x", Better: better, Gate: true}
}

// verdicts maps each reported metric name to its verdict column.
func verdicts(report string) map[string]string {
	out := make(map[string]string)
	line := regexp.MustCompile(`^  (NEW|GONE|ok|FAIL)\s+(\S+)`)
	for _, l := range strings.Split(report, "\n") {
		if m := line.FindStringSubmatch(l); m != nil {
			out[m[2]] = m[1]
		}
	}
	return out
}

func TestCheckBaselineVerdicts(t *testing.T) {
	path := writeBaseline(t, []experiments.Metric{
		gated("a/steady", 100, "higher"),
		gated("a/slower", 100, "higher"),
		gated("a/latency", 10, "lower"),
		gated("a/retired", 50, "higher"),
		{Name: "a/ungated_retired", Value: 1, Unit: "x", Better: "higher"},
	})
	cases := []struct {
		name    string
		current []experiments.Metric
		want    map[string]string
		failed  bool
	}{
		{
			name: "within threshold, new and gone never fail",
			current: []experiments.Metric{
				gated("a/steady", 95, "higher"),
				gated("a/slower", 85, "higher"),
				gated("a/latency", 11, "lower"),
				gated("a/fresh", 7, "higher"),
				{Name: "a/context_only", Value: 1, Unit: "x", Better: "higher"},
			},
			want: map[string]string{
				"a/steady": "ok", "a/slower": "ok", "a/latency": "ok",
				"a/fresh": "NEW", "a/retired": "GONE",
			},
		},
		{
			name: "regressions past the threshold fail in either direction",
			current: []experiments.Metric{
				gated("a/steady", 100, "higher"),
				gated("a/slower", 70, "higher"),
				gated("a/latency", 13, "lower"),
				gated("a/retired", 50, "higher"),
			},
			want: map[string]string{
				"a/steady": "ok", "a/slower": "FAIL", "a/latency": "FAIL", "a/retired": "ok",
			},
			failed: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			failed := checkBaseline(&out, path, c.current, 20)
			if failed != c.failed {
				t.Errorf("failed = %v, want %v\n%s", failed, c.failed, out.String())
			}
			got := verdicts(out.String())
			if len(got) != len(c.want) {
				t.Errorf("reported %v, want %v\n%s", got, c.want, out.String())
			}
			for name, v := range c.want {
				if got[name] != v {
					t.Errorf("%s: verdict %q, want %q\n%s", name, got[name], v, out.String())
				}
			}
		})
	}
}

func TestCheckBaselineUnreadable(t *testing.T) {
	var out strings.Builder
	if !checkBaseline(&out, filepath.Join(t.TempDir(), "missing.json"), nil, 20) {
		t.Error("a missing baseline file must fail the gate")
	}
}
