package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run on every workload. Host-clock metrics are medians over the
// run's repeats; sim_* metrics and ok_frac are deterministic per seed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"retained_mb", "MB"},
	{"ok_frac", "frac"},
	{"sim_makespan_s", "s"},
	{"sim_goodput", "1/s"},
	{"sim_lat_p50_ms", "ms"},
	{"sim_lat_p99_ms", "ms"},
}

// modules are the simulator's layers: the packages under internal/.
var modules = []string{
	"cluster", "core", "executor", "experiments", "faults", "gpu", "graph",
	"invariant", "llm", "metrics", "model", "obs", "overload", "par",
	"planner", "profiler", "serving", "sim", "telemetry", "trace", "workload",
}

// cpuBuckets are the CPU-profile attribution buckets: one per module, the
// benchmark's own code, and the two runtime buckets for samples with no
// repository frame.
var cpuBuckets = append(append([]string(nil), modules...), "harness", "runtime_gc", "runtime_sched")

// perLayer are the metrics of a traced run. Counts and sim figures are
// deterministic per seed and read 0 on a workload whose layers do not
// report them.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "frac"})
	}
	return append(defs, []metricDef{
		{"sim.host_ns_per_kernel", "ns"},
		{"setup.profile_s", "s"},
		{"setup.build_s", "s"},
		{"cluster.submit_ns_p50", "ns"},
		{"cluster.submit_ns_p99", "ns"},
		{"trace.req_per_s", "1/s"},
		{"trace.overhead_frac", "frac"},
		{"quantum_dev", "frac"},
		{"sim_lat_n", "count"},
		{"sim_ttft_p50_ms", "ms"},
		{"sim_ttft_p99_ms", "ms"},
		{"sim_tpot_p50_ms", "ms"},
		{"sim_tpot_p99_ms", "ms"},
		{"gpu.kernels", "count"},
		{"gpu.busy_frac", "frac"},
		{"gpu.queue_peak", "count"},
		{"core.switches", "count"},
		{"core.quantum_mean_us", "us"},
		{"core.quantum_relstd", "frac"},
		{"executor.pool_delayed", "count"},
		{"serving.batches", "count"},
		{"serving.batch_size_mean", "count"},
		{"faults.crashes", "count"},
		{"faults.revives", "count"},
		{"faults.unavailability", "frac"},
		{"cluster.failovers", "count"},
		{"cluster.decisions", "count"},
		{"cluster.rejected", "count"},
		{"cluster.retries", "count"},
		{"cluster.retry_denied", "count"},
		{"cluster.attempt_success_frac", "frac"},
		{"llm.preemptions", "count"},
		{"llm.kv_transfers", "count"},
		{"llm.transfer_mb", "MB"},
		{"llm.tokens_delivered", "count"},
		{"overload.shed", "count"},
		{"overload.expired", "count"},
		{"overload.truncated_tokens", "count"},
	}...)
}()
