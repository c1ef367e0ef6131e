package main

// The metrics every run reports, with units, in BENCHMARK.json's order.
// metrics_test.go holds the two lists and BENCHMARK.json to each other.

// endToEnd is reported by every --trace 0 run, whatever the workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_ok_frac", "frac"},
	{"events_per_s", "1/s"},
	{"latency_p75_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"max_nodes", "count"},
	{"peak_rss_bytes", "bytes"},
}

// perLayer is reported by every --trace 1 run. A workload whose
// layers do not include a metric's reports it as 0 (see README.md for
// which workload loads which layer).
var perLayer = []struct{ name, unit string }{
	{"tracebin.read_ns_per_record", "ns"},
	{"tracebin.read_share", "frac"},
	{"trace.read_ns_per_record", "ns"},
	{"trace.read_share", "frac"},
	{"trace.loop_share", "frac"},
	{"trace.analyzer_builds", "count"},
	{"trace.owners", "count"},
	{"trace.evictions", "count"},
	{"core.self_ns_per_event", "ns"},
	{"core.share", "frac"},
	{"core.events_per_call", "count"},
	{"store.ns_per_op", "ns"},
	{"store.ops_per_event", "count"},
	{"store.share", "frac"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.ingest_ms_p50", "ms"},
	{"serve.drain_ms_p50", "ms"},
	{"serve.report_ms_p50", "ms"},
	{"serve.http_ms_p50", "ms"},
	{"serve.quota_rejects", "count"},
	{"serve.limit_aborts", "count"},
	{"rma.baseline_ms_p50", "ms"},
	{"detector.analysis_ms", "ms"},
	{"detector.overhead_x", "x"},
	{"rma.peak_rss_bytes", "bytes"},
	{"engine.received", "count"},
	{"engine.overflows", "count"},
	{"engine.block_ms", "ms"},
	{"engine.queue_depth_max", "count"},
	{"rma.notif_batch_fill", "count"},
	{"rma.epoch_ms_p50", "ms"},
	{"core.max_nodes_min", "count"},
	{"core.max_nodes_max", "count"},
	{"traced_overhead_x", "x"},
	{"host.calib_ms", "ms"},
}

// fillAbsent adds every per-layer metric m lacks as 0 with its unit,
// so each traced run prints the full set.
func fillAbsent(m map[string]metric) {
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			m[pl.name] = metric{0, pl.unit}
		}
	}
}
