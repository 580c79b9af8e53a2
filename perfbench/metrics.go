package main

// metricDef names one reported metric. The lists mirror BENCHMARK.json
// at the repository root; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports all of them; what an "operation" is depends on the workload
// (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"multiply_gflops", "GFLOP/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer the
// workload does not call reads 0.
var perLayer = []metricDef{
	{"gen.generate_s", "s", "lower"},
	{"core.extract_s", "s", "lower"},
	{"selector.rank_s", "s", "lower"},
	{"selector.auto_s", "s", "lower"},
	{"selector.model_retained", "ratio", "higher"},
	{"selector.probe_agreement", "ratio", "higher"},
	{"formats.build_s", "s", "lower"},
	{"formats.bytes_per_nnz", "B", "lower"},
	{"formats.spmv_ms_p50", "ms", "lower"},
	{"formats.spmm_ms_p50", "ms", "lower"},
	{"formats.bw_fraction", "ratio", "higher"},
	{"host.triad_gbs", "GB/s", "higher"},
	{"simd.top_tier_kernels", "count", "higher"},
	{"exec.busy_s", "s", "lower"},
	{"exec.spawn_fallbacks", "count", "lower"},
	{"cache.decision_hits", "count", "higher"},
	{"cache.decision_misses", "count", "lower"},
	{"update.apply_ns", "ns", "lower"},
	{"update.fused_ms_p50", "ms", "lower"},
	{"update.compactions", "count", "lower"},
	{"update.compact_ms", "ms", "lower"},
	{"update.freeze_ms", "ms", "lower"},
	{"update.commit_parks", "count", "lower"},
	{"serve.upload_s", "s", "lower"},
	{"serve.coalescer_ms_p50", "ms", "lower"},
	{"serve.transport_ms_p50", "ms", "lower"},
	{"serve.mean_batch", "ratio", "higher"},
	{"serve.flush_window", "count", "lower"},
	{"serve.flush_full", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

var workloads = []string{"solve", "serve", "update"}
