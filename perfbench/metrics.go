package main

// metricDef is one benchmark metric as BENCHMARK.json declares it. For a
// per-layer metric, moves names the end-to-end metric and workload it is
// expected to move.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are reported with tracing off, on every workload. The
// /mutate p90 is printed but not among them: on shared storage its fsync
// tail moved by up to half between runs of the same code.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "reopen_s", unit: "s", better: "lower"},
	{name: "query_p50_ms", unit: "ms", better: "lower"},
	{name: "query_p90_ms", unit: "ms", better: "lower"},
	{name: "invoke_p50_ms", unit: "ms", better: "lower"},
	{name: "invoke_p90_ms", unit: "ms", better: "lower"},
	{name: "mutate_p50_ms", unit: "ms", better: "lower"},
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer are reported by the traced run. Times and counts are per
// evaluated (/query or /invoke) request, except storage.clone_ms and
// storage.append_ms, which are per /mutate. Select, anti-join and
// symmetric-join operators have no metric: the engine folds comparisons
// and negated subgoals into its scans and joins, and no workload streams
// one step into another, so they would read 0 on every workload.
var perLayer = []metricDef{
	{"flockd.overhead_ms", "ms", "lower", "invoke_p50_ms on medical-serve; negligible on words-adhoc"},
	{"flockd.http_json_ms", "ms", "lower", "invoke_p50_ms on medical-serve"},
	{"datalog.parse_us", "us", "lower", "invoke_p50_ms and query_p50_ms on medical-serve"},
	{"analysis.lint_us", "us", "lower", "invoke_p50_ms and query_p50_ms on medical-serve"},
	{"analysis.canon_us", "us", "lower", "invoke_p50_ms and query_p50_ms on medical-serve"},
	{"serve.plan_hit_ratio", "ratio", "higher", "invoke_p90_ms and throughput_rps on medical-serve"},
	{"serve.memo_ext_hit_ratio", "ratio", "higher", "invoke_p90_ms and throughput_rps on medical-serve"},
	{"serve.memo_surv_hit_ratio", "ratio", "higher", "invoke_p90_ms and throughput_rps on medical-serve"},
	{"serve.plan_evictions", "count", "lower", "invoke_p90_ms and throughput_rps on medical-serve"},
	{"serve.memo_evictions", "count", "lower", "invoke_p90_ms and throughput_rps on medical-serve"},
	{"serve.memo_mb", "MiB", "lower", "invoke_p90_ms and throughput_rps on medical-serve"},
	{"planner.plan_ms", "ms", "lower", "invoke_p90_ms on medical-serve; query_p50_ms on medical-disk"},
	{"planner.dynamic_filter_ratio", "ratio", "higher", "query_p90_ms on medical-serve"},
	{"core.check_us", "us", "lower", "invoke_p50_ms on medical-serve"},
	{"core.eval_ms", "ms", "lower", "query_p50_ms on words-adhoc and medical-disk"},
	{"core.filter_survival", "ratio", "lower", "query_p50_ms on words-adhoc and medical-disk"},
	{"physical.group_ms", "ms", "lower", "query_p50_ms on words-adhoc only"},
	{"physical.join_ms", "ms", "lower", "query_p50_ms on words-adhoc and medical-disk"},
	{"physical.scan_ms", "ms", "lower", "query_p50_ms on words-adhoc and medical-disk"},
	{"physical.project_ms", "ms", "lower", "query_p50_ms on words-adhoc and medical-disk"},
	{"physical.build_ms", "ms", "lower", "query_p50_ms on words-adhoc and medical-disk"},
	{"physical.materialize_ms", "ms", "lower", "query_p50_ms on words-adhoc and medical-disk"},
	{"physical.group_rows_in", "count", "lower", "query_p50_ms on words-adhoc"},
	{"physical.groups", "count", "lower", "query_p50_ms on words-adhoc"},
	{"physical.id_batch_share", "ratio", "higher", "query_p50_ms on medical-disk"},
	{"physical.peak_tuples", "count", "lower", "peak_rss_mb on words-adhoc and medical-disk"},
	{"physical.alloc_mb", "MiB", "lower", "peak_rss_mb on words-adhoc and medical-disk"},
	{"storage.load_ms", "ms", "lower", "setup_s and reopen_s on every workload"},
	{"storage.append_ms", "ms", "lower", "mutate_p50_ms on medical-disk"},
	{"storage.write_amp", "ratio", "lower", "mutate_p50_ms on medical-disk"},
	{"storage.clone_ms", "ms", "lower", "mutate_p50_ms on medical-serve"},
	{"storage.bytes_read", "bytes", "lower", "query_p50_ms on medical-disk"},
	{"storage.segments_opened", "count", "lower", "query_p50_ms on medical-disk"},
	{"storage.index_blocks_read", "count", "lower", "query_p50_ms on medical-disk"},
	{"storage.delta_rows", "count", "lower", "query_p50_ms on medical-disk"},
	{"storage.dict_size", "count", "lower", "peak_rss_mb on words-adhoc and medical-serve"},
	{"storage.intern_misses", "count", "lower", "query_p50_ms on words-adhoc"},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "query_p50_ms and peak_rss_mb on words-adhoc"},
	{"trace.overhead_pct", "%", "lower", "none: the cost of the spans themselves"},
	{"trace.self_time_share", "ratio", "higher", "none: layer self times over replayed request time"},
}
