// Command benchtab regenerates the tables and figures of the paper's
// evaluation (Alsabti, Ranka, Singh: "A One-Pass Algorithm for Accurately
// Estimating Quantiles for Disk-Resident Data", VLDB 1997).
//
// Usage:
//
//	benchtab -exp table3            # one experiment
//	benchtab -exp compact,ingest    # a comma-separated set
//	benchtab -exp all -scale 1      # everything at paper scale
//	benchtab -list
//
// -scale divides the paper's dataset sizes: -scale 1 is paper scale
// (1M–32M keys; minutes of CPU), -scale 10 runs in seconds. Accuracy
// metrics (RER_A/L/N) are scale-free — their ceilings depend only on the
// sample size s — so scaled runs reproduce the paper's numbers; the
// simulated-time experiments report model time at any scale.
//
// The perf trajectory: -json writes every experiment's machine-readable
// metrics (with the current commit) to a file, and -baseline compares
// gated metrics against such a file from an earlier commit, failing when
// any regresses by more than -regress percent. CI checks BENCH_6.json in
// at the repo root and gates pull requests on it:
//
//	benchtab -exp ingest -json BENCH_6.json               # refresh baseline
//	benchtab -exp ingest -baseline BENCH_6.json -regress 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"opaq/internal/experiments"
)

// benchFile is the on-disk shape of -json output and -baseline input.
type benchFile struct {
	Commit  string               `json:"commit"`
	Scale   int                  `json:"scale"`
	Metrics []experiments.Metric `json:"metrics"`
}

func main() {
	exp := flag.String("exp", "all", "experiment(s) to run, comma-separated (use -list for names, or all)")
	scale := flag.Int("scale", 10, "divide the paper's dataset sizes by this factor (1 = paper scale)")
	list := flag.Bool("list", false, "list available experiments and exit")
	jsonOut := flag.String("json", "", "write the run's metrics (with commit) to this JSON file")
	baseline := flag.String("baseline", "", "compare gated metrics against this JSON file's")
	regress := flag.Float64("regress", 20, "with -baseline: fail when a gated metric regresses by more than this percent")
	flag.Parse()

	registry := experiments.All()
	if *list {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	var names []string
	if *exp == "all" {
		names = experiments.Order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if registry[name] == nil {
				fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			names = append(names, name)
		}
	}

	fmt.Printf("OPAQ reproduction — scale 1/%d of paper dataset sizes\n\n", *scale)
	var metrics []experiments.Metric
	for _, name := range names {
		start := time.Now()
		tbl, err := registry[name](*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := tbl.Format(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		metrics = append(metrics, tbl.Metrics...)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *jsonOut != "" {
		out := benchFile{Commit: headCommit(), Scale: *scale, Metrics: metrics}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d metrics to %s\n", len(metrics), *jsonOut)
	}

	if *baseline != "" {
		if failed := checkBaseline(os.Stdout, *baseline, metrics, *regress); failed {
			os.Exit(1)
		}
	}
}

// checkBaseline compares this run's gated metrics against the baseline
// file's, reporting every comparison to out and returning true when any
// metric regressed past the threshold. Metrics present on only one side
// are reported — NEW when the baseline lacks them, GONE when the run no
// longer produces a metric the baseline gated — but never fail: renames,
// new experiments and retired subsystems should not break the gate.
func checkBaseline(out io.Writer, path string, current []experiments.Metric, pct float64) bool {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: baseline: %v\n", err)
		return true
	}
	var base benchFile
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: baseline %s: %v\n", path, err)
		return true
	}
	baseByName := make(map[string]experiments.Metric, len(base.Metrics))
	for _, m := range base.Metrics {
		baseByName[m.Name] = m
	}

	fmt.Fprintf(out, "regression gate: vs %s (commit %s), threshold %.0f%%\n", path, base.Commit, pct)
	failed := false
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		seen[cur.Name] = true
		if !cur.Gate {
			continue
		}
		ref, ok := baseByName[cur.Name]
		if !ok {
			fmt.Fprintf(out, "  NEW   %-40s %12.4g %s (no baseline)\n", cur.Name, cur.Value, cur.Unit)
			continue
		}
		// delta > 0 always means "worse", whichever direction is better.
		var delta float64
		if cur.Better == "lower" {
			delta = (cur.Value - ref.Value) / ref.Value * 100
		} else {
			delta = (ref.Value - cur.Value) / ref.Value * 100
		}
		verdict := "ok"
		if delta > pct {
			verdict = "FAIL"
			failed = true
		}
		fmt.Fprintf(out, "  %-5s %-40s %12.4g -> %12.4g %s (%+.1f%% worse)\n",
			verdict, cur.Name, ref.Value, cur.Value, cur.Unit, delta)
	}
	for _, ref := range base.Metrics {
		if ref.Gate && !seen[ref.Name] {
			fmt.Fprintf(out, "  GONE  %-40s %12.4g %s (not produced by this run)\n", ref.Name, ref.Value, ref.Unit)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchtab: gated metrics regressed more than %.0f%% vs %s\n", pct, path)
	}
	return failed
}

// headCommit stamps the metrics file with the commit it measured.
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
