package main

// metricDef is one reported metric. moves and where record, before any
// measurement, which end-to-end metric a layer metric should move and
// on which workloads it should dominate or stay flat.
type metricDef struct {
	name, unit, better string
	moves, where       string
}

// endToEnd are the metrics of a run with tracing off.
var endToEnd = []metricDef{
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "tail_ms", unit: "ms", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

const (
	pipelineAll = "upload-topk, live-append, ask"
)

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"dataset.ingest_ms", "ms", "lower", "p50_ms, cpu_ms_per_op", "upload-topk / live-append, ask"},
	{"dataset.ingest_alloc_mib", "MiB", "lower", "cpu_ms_per_op, peak_rss_mib", "upload-topk / live-append, ask"},
	{"dataset.fingerprint_ms", "ms", "lower", "p50_ms", "upload-topk / live-append (the registry injects them into each snapshot), ask"},
	{"dataset.fingerprint_alloc_mib", "MiB", "lower", "cpu_ms_per_op", "upload-topk / live-append (the registry injects them into each snapshot), ask"},
	{"dataset.stats_ms", "ms", "lower", "p50_ms", "upload-topk / live-append (the registry injects them into each snapshot), ask"},
	{"dataset.stats_alloc_mib", "MiB", "lower", "cpu_ms_per_op", "upload-topk / live-append (the registry injects them into each snapshot), ask"},
	{"rules.enumerate_ms", "ms", "lower", "p50_ms", "upload-topk, live-append / ask"},
	{"rules.enumerate_alloc_mib", "MiB", "lower", "cpu_ms_per_op", "upload-topk, live-append / ask"},
	{"rules.queries", "count", "lower", "p50_ms", "upload-topk, live-append / ask"},
	{"vizql.execute_ms", "ms", "lower", "p50_ms, cpu_ms_per_op", pipelineAll},
	{"vizql.execute_alloc_mib", "MiB", "lower", "cpu_ms_per_op, peak_rss_mib", pipelineAll},
	{"vizql.nodes", "count", "lower", "p50_ms", pipelineAll},
	{"vizql.derive_ms", "ms", "lower", "p50_ms (upper bound of the correlation/trend share of execute, which shares them across equal series; not in coverage)", pipelineAll},
	{"vizql.derive_alloc_mib", "MiB", "lower", "cpu_ms_per_op", pipelineAll},
	{"vizql.dedupe_ms", "ms", "lower", "p50_ms", "upload-topk, live-append / ask"},
	{"vizql.dedupe_alloc_mib", "MiB", "lower", "cpu_ms_per_op", "upload-topk, live-append / ask"},
	{"vizql.dedupe_keep_ratio", "ratio", "higher", "p50_ms", "upload-topk, live-append / ask"},
	{"rank.factors_ms", "ms", "lower", "p50_ms", pipelineAll},
	{"rank.factors_alloc_mib", "MiB", "lower", "cpu_ms_per_op", pipelineAll},
	{"rank.order_ms", "ms", "lower", "p50_ms", pipelineAll},
	{"rank.order_alloc_mib", "MiB", "lower", "cpu_ms_per_op", pipelineAll},
	{"nlq.parse_ms", "ms", "lower", "p50_ms", "ask / all others"},
	{"nlq.parse_alloc_mib", "MiB", "lower", "cpu_ms_per_op", "ask / all others"},
	{"nlq.candidates", "count", "lower", "p50_ms, tail_ms", "ask / all others"},
	{"registry.append_ms", "ms", "lower", "p50_ms, tail_ms", "live-append / all others"},
	{"registry.append_alloc_mib", "MiB", "lower", "cpu_ms_per_op", "live-append / all others"},
	{"registry.snapshot_ms", "ms", "lower", "p50_ms, tail_ms", "live-append / all others"},
	{"registry.snapshot_alloc_mib", "MiB", "lower", "cpu_ms_per_op, peak_rss_mib", "live-append / all others"},
	{"wal.bytes_per_row", "bytes", "lower", "p50_ms, tail_ms", "live-append / all others"},
	{"server.self_ms", "ms", "lower", "p50_ms, ops_per_s", "small share on every workload; largest on ask"},
	{"server.self_alloc_mib", "MiB", "lower", "cpu_ms_per_op", "small share on every workload; largest on ask"},
	{"http.transport_ms", "ms", "lower", "p50_ms, ops_per_s", "small share on every workload; largest on ask"},
	{"cache.hit_ratio", "ratio", "higher", "p50_ms, peak_rss_mib", "ask (per-query results reused across questions) / upload-topk, live-append = 0"},
	{"cache.evictions", "count", "lower", "p50_ms, peak_rss_mib", "upload-topk (results never reused fill the budget) / live-append, ask"},
	{"cache.coalesced", "count", "higher", "p50_ms", "0 unless identical requests overlap"},
	{"trace.coverage", "ratio", "higher", "-", "every workload; ~1.0 when the layers add up"},
	{"trace.overhead_pct", "%", "lower", "-", "every workload"},
}
