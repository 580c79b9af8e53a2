package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/simd"
)

// runConfig is what one workload process is asked to do.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	setupOnly bool    // set up, report setup_s, exit
	root      string  // checkout root: binaries and the trace directory
	tr        *tracer // non-nil on a traced run
}

// childResult is what a workload process reports to the parent as one
// JSON object.
type childResult struct {
	Workload  string             `json:"workload"`
	SetupS    float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"` // end-to-end
	Layers    map[string]float64 `json:"layers"`  // per-layer (traced run)
	Notes     []string           `json:"notes"`
	SIMDLevel string             `json:"simd_level"`
	SIMDTable []simd.KernelInfo  `json:"simd_table"`
	Spans     string             `json:"spans,omitempty"`
	SpanCount int                `json:"span_count,omitempty"`
	SelfTimes []layerSelf        `json:"self_times,omitempty"`
}

func newResult(w string) *childResult {
	return &childResult{Workload: w, Metrics: map[string]float64{}, Layers: map[string]float64{}}
}

// fail records a failed operation (the first few messages are kept).
func (r *childResult) fail(format string, a ...any) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
	}
}

// note appends a human-readable line.
func (r *childResult) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// engineMark snapshots the exec engine's counters so a traced run can
// report what its measured loop cost the engine.
type engineMark struct {
	busy   time.Duration
	spawns uint64
}

func markEngine() engineMark {
	st := exec.Stats()
	m := engineMark{spawns: st.SpawnFallbacks}
	for _, s := range st.Shards {
		m.busy += s.Busy
	}
	return m
}

// engineLayers reports exec and cache counters since mark.
func engineLayers(r *childResult, mark engineMark) {
	now := markEngine()
	r.Layers["exec.busy_s"] = (now.busy - mark.busy).Seconds()
	r.Layers["exec.spawn_fallbacks"] = float64(now.spawns - mark.spawns)
	hits, misses := cache.Decisions.Stats()
	r.Layers["cache.decision_hits"] = float64(hits)
	r.Layers["cache.decision_misses"] = float64(misses)
}

// simdLayers records the dispatch table this process calibrated.
func simdLayers(r *childResult) {
	r.SIMDLevel = simd.Level()
	r.SIMDTable = simd.Table()
	top := 0
	for _, k := range r.SIMDTable {
		if k.Impl == r.SIMDLevel {
			top++
		}
	}
	r.Layers["simd.top_tier_kernels"] = float64(top)
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// minOps is the fewest latency samples a run takes: the p90 needs ten
// beyond it. A run on a slow host goes on past --seconds, by whole
// rounds, until it has them.
const minOps = 100

// latencyMetrics fills op_p50_ms from per-operation latencies in seconds
// and states the p90 with its sample count. The p90 is reported only with
// at least minBeyond samples beyond it; it is not a bounded metric,
// because on a host whose CPU is taken away in bursts it moved between
// runs by more than any bound the benchmark may set (see README.md).
func latencyMetrics(r *childResult, lat []float64) error {
	p50 := median(lat)
	p90, ok := percentile(lat, 0.9)
	if !ok {
		return fmt.Errorf("%d operations leave fewer than %d samples beyond p90; run longer", len(lat), minBeyond)
	}
	r.Metrics["op_p50_ms"] = p50 * 1e3
	r.note("operation latency: %d samples, p50 %.3f ms, p90 %.3f ms with %d samples beyond it",
		len(lat), p50*1e3, p90*1e3, len(lat)-int(math.Ceil(0.9*float64(len(lat)))))
	return nil
}

// roundTimes keeps a traced run's round durations, split by whether the
// round was traced: a traced run alternates the two.
type roundTimes struct{ traced, plain []float64 }

func (rt *roundTimes) add(traced bool, d time.Duration) {
	if traced {
		rt.traced = append(rt.traced, d.Seconds())
	} else {
		rt.plain = append(rt.plain, d.Seconds())
	}
}

// overhead reports how much slower traced rounds ran than untraced ones.
func overhead(r *childResult, rt roundTimes) {
	if len(rt.traced) == 0 || len(rt.plain) == 0 {
		return
	}
	r.Layers["trace.overhead_pct"] = 100 * (median(rt.traced)/median(rt.plain) - 1)
	r.note("tracing overhead: %d traced rounds vs %d untraced rounds", len(rt.traced), len(rt.plain))
}

func workers() int { return runtime.GOMAXPROCS(0) }
