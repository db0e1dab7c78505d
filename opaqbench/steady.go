package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runJSON is the last line a run prints.
type runJSON struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steadyMain runs one workload n times in child processes, seeds
// firstSeed, firstSeed+1, …, and prints each metric's median, quartiles
// and interquartile spread as a share of the median: the evidence the
// bounds in BENCHMARK.json are set from.
func steadyMain(workload string, n int, firstSeed int64, seconds float64, trace bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := firstSeed + int64(i)
		args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", map[bool]string{false: "0", true: "1"}[trace]}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r runJSON
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		var vals []string
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.name]; ok {
				vals = append(vals, fmt.Sprintf("%s=%.4g", d.name, m.Value))
			}
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d %s\n",
			seed, r.Correct, r.Attempted, r.Failed, strings.Join(vals, " "))
		if !r.Correct {
			fmt.Print(out.String())
		}
		for k, m := range r.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, k := range names {
		q1, q3 := quartiles(values[k])
		fmt.Printf("%-34s %14.6g %14.6g %14.6g %7.1f%%  %s\n",
			k, median(values[k]), q1, q3, 100*spread(values[k]), units[k])
	}
	return nil
}
