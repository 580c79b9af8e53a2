// Command perfbench is the repository's benchmark: three workloads — a
// CG solve set, the spmv-serve daemon under two closed-loop clients, and
// an updatable matrix under a write/read script — each run in a fresh
// process at the program's defaults, checked against the benchmark's own
// oracle, and reported as end-to-end metrics (untraced) or per-layer
// metrics (traced). See README.md.
//
// Usage (from the repository root, through run.sh which builds first):
//
//	bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupSamples is how many fresh processes set up per run, by workload;
// setup_s is their median. Each is a fresh process because a second
// set-up in the same process would hit the decision cache the first one
// filled. Serve and update set up in well under a second, so they take
// more samples: the serve set-up (a daemon boot) is the noisiest.
var setupSamples = map[string]int{"solve": 3, "serve": 7, "update": 5}

// runTimeout bounds a whole run, every workload process included.
const runTimeout = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "solve, serve or update")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (0: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository root (binaries, BENCHMARK.json, traces)")
		child    = flag.String("child", "", "internal: run one workload process (setup or run)")
		steady   = flag.Int("steady", 0, "steadiness mode: run the workload (all when --workload is empty) this many times")
	)
	flag.Parse()
	var err error
	if *child == "" && *seconds == 0 {
		var spec benchSpec
		if spec, err = readSpec(*root); err == nil {
			*seconds = float64(spec.RunSeconds)
		}
	}
	switch {
	case err != nil:
	case *child != "":
		err = runChild(runConfig{workload: *workload, seed: *seed, seconds: *seconds,
			setupOnly: *child == "setup", root: *root}, *trace == 1)
	case *steady > 0:
		wls := workloads
		if *workload != "" {
			wls = []string{*workload}
		}
		err = runSteady(*root, wls, *steady, *seconds)
	default:
		err = runParent(*root, *workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runChild runs one workload process and prints its result as JSON.
func runChild(cfg runConfig, trace bool) error {
	r := newResult(cfg.workload)
	if trace {
		cfg.tr = newTracer()
	}
	var err error
	switch cfg.workload {
	case "solve":
		err = runSolve(cfg, r)
	case "serve":
		err = runServe(cfg, r)
	case "update":
		err = runUpdate(cfg, r)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		for _, n := range r.Notes {
			fmt.Fprintln(os.Stderr, n)
		}
		return err
	}
	simdLayers(r)
	if trace {
		r.Spans = filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := cfg.tr.write(r.Spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		r.SpanCount = len(cfg.tr.spans)
		r.SelfTimes = cfg.tr.selfTimes()
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// cleanEnv is the environment without inherited SPMV_* settings, so the
// program runs at its defaults.
func cleanEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "SPMV_") {
			env = append(env, kv)
		}
	}
	return env
}

// spawn runs this binary as a workload process with a clean environment
// and decodes its result.
func spawn(ctx context.Context, root, mode, workload string, seed int64, seconds float64, trace bool) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := osexec.CommandContext(ctx, self, "--child", mode, "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", tr, "--root", root)
	cmd.Env = cleanEnv()
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s process: %w", workload, mode, err)
	}
	var r childResult
	if err := json.Unmarshal(lastLine(out), &r); err != nil {
		return nil, fmt.Errorf("%s %s process output: %w", workload, mode, err)
	}
	return &r, nil
}

func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// metricValue is one metric of the final line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of a run's standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runParent runs one benchmark run: set-up samples, the workload process,
// the host block, then every metric by name and the final JSON line.
func runParent(root, workload string, seed int64, seconds float64, trace bool) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("--workload must be one of %v, got %q", workloads, workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return fmt.Errorf("not a repository root: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var setups []float64
	if !trace {
		for i := 1; i < setupSamples[workload]; i++ {
			r, err := spawn(ctx, root, "setup", workload, seed, seconds, false)
			if err != nil {
				return err
			}
			setups = append(setups, r.SetupS)
		}
	}
	r, err := spawn(ctx, root, "run", workload, seed, seconds, trace)
	if err != nil {
		return err
	}
	setups = append(setups, r.SetupS)
	host := measureHost(root)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", workload, seed, seconds, trace)
	for _, l := range host.lines() {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "simd level: %s\n", r.SIMDLevel)
	for _, k := range r.SIMDTable {
		fmt.Fprintf(w, "simd kernel %-18s %s\n", k.Kernel, k.Impl)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}

	out := finalLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if trace {
		r.Layers["host.triad_gbs"] = host.TriadGBs
		r.Layers["formats.bw_fraction"] = r.Layers["formats.spmv_bytes_per_s"] / 1e9 / host.TriadGBs
		for _, m := range perLayer {
			out.Metrics[m.Name] = metricValue{r.Layers[m.Name], m.Unit}
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", r.SpanCount, r.Spans)
		for _, s := range r.SelfTimes {
			fmt.Fprintf(w, "span %-24s count %7d total %9.4fs self %9.4fs\n", s.Name, s.Count, s.Total, s.Self)
		}
	} else {
		r.Metrics["setup_s"] = median(setups)
		fmt.Fprintf(w, "setup samples (s): %v\n", setups)
		for _, m := range endToEnd {
			v, ok := r.Metrics[m.Name]
			if !ok || v <= 0 {
				return fmt.Errorf("metric %s not measured", m.Name)
			}
			out.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-26s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "failure: %s\n", e)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if r.Failed > 0 {
		w.Flush()
		return errors.New("operations failed the oracle check")
	}
	return nil
}
