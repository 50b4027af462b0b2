package main

// metricSpec names one reported metric. End-to-end metrics carry the
// share of the parent's median by which they may worsen before a change
// counts as a regression; per-layer metrics carry no bound.
type metricSpec struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only
}

// endToEnd are the numbers a user of the system sees, from the
// untraced run (--trace 0). The open-loop tail percentiles are not
// among them: on a shared 2-vCPU host their spread over seeds is 0.3 to
// 0.8 of their median, wider than any bound a regression gate can
// use, so they are reported with the traced run's numbers instead.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"within_slo_frac", "fraction", "higher", 0.05},
	{"completed_frac", "fraction", "higher", 0.05},
	{"heap_peak_mb", "MB", "lower", 0.25},
	{"candidates_mean", "count", "lower", 0.2},
	{"k_satisfied_frac", "fraction", "higher", 0.05},
}

// perLayer are the traced run's numbers (--trace 1), grouped by the
// module each one times or counts.
var perLayer = []metricSpec{
	{name: "protocol.rtt_p50_us", unit: "us", better: "lower"},
	{name: "protocol.overhead_p50_us", unit: "us", better: "lower"},
	{name: "protocol.shed", unit: "count", better: "lower"},
	{name: "core.update_self_us", unit: "us", better: "lower"},
	{name: "core.query_self_us", unit: "us", better: "lower"},
	{name: "core.self_frac", unit: "fraction", better: "lower"},
	{name: "anonymizer.update_us", unit: "us", better: "lower"},
	{name: "anonymizer.cloak_us", unit: "us", better: "lower"},
	{name: "anonymizer.steps_up_mean", unit: "count", better: "lower"},
	{name: "anonymizer.k_found_over_k_mean", unit: "ratio", better: "lower"},
	{name: "anonymizer.unsatisfiable", unit: "count", better: "lower"},
	{name: "anonymizer.self_frac", unit: "fraction", better: "lower"},
	{name: "privacyobs.observe_us", unit: "us", better: "lower"},
	{name: "privacyobs.budget_check_us", unit: "us", better: "lower"},
	{name: "privacyobs.self_frac", unit: "fraction", better: "lower"},
	{name: "server.upsert_us", unit: "us", better: "lower"},
	{name: "server.upsert_alloc_kb", unit: "KiB", better: "lower"},
	{name: "server.nn_hit_us", unit: "us", better: "lower"},
	{name: "server.nn_miss_us", unit: "us", better: "lower"},
	{name: "server.knn_us", unit: "us", better: "lower"},
	{name: "server.range_us", unit: "us", better: "lower"},
	{name: "server.cache_hit_frac", unit: "fraction", better: "higher"},
	{name: "server.candidates_per_query", unit: "count", better: "lower"},
	{name: "server.self_frac", unit: "fraction", better: "lower"},
	{name: "privacyqp.refine_us", unit: "us", better: "lower"},
	{name: "privacyqp.answers_per_candidate", unit: "ratio", better: "higher"},
	{name: "privacyqp.self_frac", unit: "fraction", better: "lower"},
	{name: "continuous.apply_us", unit: "us", better: "lower"},
	{name: "continuous.evals_per_update", unit: "ratio", better: "lower"},
	{name: "continuous.safe_hit_frac", unit: "fraction", better: "higher"},
	{name: "continuous.events_per_update", unit: "ratio", better: "lower"},
	{name: "continuous.queue_high_water", unit: "count", better: "lower"},
	{name: "continuous.self_frac", unit: "fraction", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_update", unit: "bytes", better: "lower"},
	{name: "wal.log_bytes_per_live_byte", unit: "ratio", better: "lower"},
	{name: "wal.self_frac", unit: "fraction", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "fraction", better: "lower"},
	{name: "runtime.sched_latency_p99_us", unit: "us", better: "lower"},
	{name: "runtime.alloc_mb_per_kop", unit: "MB", better: "lower"},
	{name: "runtime.goroutines_peak", unit: "count", better: "lower"},
	{name: "openloop.p99_ms", unit: "ms", better: "lower"},
	{name: "openloop.update_p99_ms", unit: "ms", better: "lower"},
	{name: "openloop.query_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.lateness_p99_ms", unit: "ms", better: "lower"},
	{name: "trace.throughput_ops_s", unit: "1/s", better: "higher"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower"},
}

func metricSpecs(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}
