package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// default run length and the bounds of the steadiness report.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(root string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// runSteady runs every listed workload n times on seeds 1..n and prints,
// per end-to-end metric, the median, quartiles, min and max, the spread
// (q3-q1)/median next to the bound in BENCHMARK.json, and the bound the
// spread would justify (three times the spread).
func runSteady(root string, wls []string, n int, seconds float64) error {
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range wls {
		vals := map[string][]float64{}
		attempted, failed := 0, 0
		for s := 1; s <= n; s++ {
			cmd := osexec.Command(self, "--workload", wl, "--seed", strconv.Itoa(s),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--root", root)
			cmd.Env = cleanEnv()
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			// Each run's full report is kept for a closer look.
			logPath := filepath.Join(root, ".bench_build", "steady", fmt.Sprintf("%s-seed%d.txt", wl, s))
			if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(logPath, out, 0o644); err != nil {
				return err
			}
			var fl finalLine
			if err := json.Unmarshal(lastLine(out), &fl); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			attempted += fl.Attempted
			failed += fl.Failed
			for name, v := range fl.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "steady %s seed %d done\n", wl, s)
		}
		fmt.Printf("workload %s: %d runs of %gs, %d operations, %d failed\n", wl, n, seconds, attempted, failed)
		fmt.Printf("  %-16s %12s %12s %12s %12s %12s %8s %7s %9s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "bound", "suggested")
		for _, m := range endToEnd {
			xs := vals[m.Name]
			if len(xs) == 0 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			spread := (q3 - q1) / med
			verdict := ""
			if b := bounds[m.Name]; b > 0 && spread > b/3 {
				verdict = "  above a third of its bound"
			}
			fmt.Printf("  %-16s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %7.3f %9.2f%s\n",
				m.Name, med, q1, q3, lo, hi, spread, bounds[m.Name], math.Ceil(300*spread)/100, verdict)
		}
	}
	return nil
}
