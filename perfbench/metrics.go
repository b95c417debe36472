package main

// metricDef names one reported metric. The lists below are the
// benchmark's catalog; BENCHMARK.json at the repository root must list
// the same names, units and directions (TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// Every end-to-end metric is meaningful and non-zero on every workload.
// An "operation" is one call a user waits for: a sim.Run* call, or one
// served job from submission until its result is fetched.
//
// Bounds: on the 2-vCPU Xeon VM the baseline was recorded on, identical
// work runs up to 15% slower for minutes at a time (no steal time; the
// memory-bound parsec_suite_4x4 suffers most), and no run length averages
// that out: 10-seed quartile spreads of the wall-time metrics ranged from
// 3% to 21%. The wall-time metrics therefore take 0.24, just under
// setup_s's 0.25, the largest bound.
var endToEnd = []metricDef{
	// Median of three cold set-ups, each timed from process start to the
	// first measured operation.
	{"setup_s", "s", "lower", 0.25},
	// Simulated router-cycles (warmup plus measured, from the configs)
	// per host second of the measured phase; for the served workload,
	// those of every simulation the service executed. Work-weighted:
	// the costliest runs dominate it.
	{"sim_node_cycles_per_s", "1/s", "higher", 0.24},
	// Geometric mean latency of one simulation as its caller sees it: a
	// sim.Run* call, or a served job that ran a simulation (submit to
	// result fetched). Run-weighted: every run counts alike. A percentile
	// of a mix of unlike runs jumps between run kinds as seeds change,
	// so the percentiles are reported per layer instead.
	{"run_ms_gmean", "ms", "lower", 0.24},
	// Completed operations per second (served jobs include cache hits).
	{"ops_per_s", "1/s", "higher", 0.24},
	// Maximum resident set of the measuring process (getrusage).
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// cpuModules are the layers a CPU-profile sample can be charged to: the
// repository's modules, runtime (GC, scheduler and any sample without a
// nord frame), other (the remaining nord packages) and perfbench (this
// benchmark's own code).
var cpuModules = []string{
	"topology", "noc", "flit", "stats", "traffic", "memsys", "power",
	"sim", "serve", "search", "runtime", "other", "perfbench",
}

// plannerGrids are the router grids whose perf-centric planner time is
// reported separately, named <kind><W>x<H>.
var plannerGrids = []grid{
	{"mesh", 4, 4}, {"mesh", 8, 8}, {"torus", 8, 8},
	{"mesh", 10, 10}, {"torus", 10, 10}, {"mesh", 12, 12},
}

var designNames = []string{"no_pg", "conv_pg", "conv_pg_opt", "nord"}

// workloadMetrics are user-facing figures that only some workloads
// produce. A metric of BENCHMARK.json's end-to-end list must be non-zero
// on every workload, so these are measured with tracing off
// like the end-to-end metrics but reported in the per-layer list (0
// where a workload does not produce them).
var workloadMetrics = []metricDef{
	{"run_p50_ms", "ms", "lower", 0},
	{"run_p90_ms", "ms", "lower", 0},
	{"sim_instr_per_s", "1/s", "higher", 0},
	{"job_cold_p50_ms", "ms", "lower", 0},
	{"job_cold_p90_ms", "ms", "lower", 0},
	{"job_hit_p50_ms", "ms", "lower", 0},
	{"jobs_per_s", "1/s", "higher", 0},
	{"search_evals_per_s", "1/s", "higher", 0},
	{"failed_ratio", "ratio", "lower", 0},
}

// perLayer is the full per-layer list, in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, m := range cpuModules {
		add(m+".cpu_s", "s", "lower")
	}
	add("profile.cpu_s", "s", "lower")
	add("process.cpu_s", "s", "lower")
	add("profile.cpu_share", "ratio", "higher")
	add("topology.planner_s", "s", "lower")
	for _, g := range plannerGrids {
		add("topology.planner_s."+g.name(), "s", "lower")
	}
	add("topology.planner_share", "ratio", "lower")
	add("noc.packets_delivered", "count", "higher")
	add("noc.wakeups", "count", "lower")
	add("noc.host_ns_per_packet", "ns", "lower")
	for _, d := range designNames {
		add("sim.run_ns_per_node_cycle."+d, "ns", "lower")
	}
	add("sim.run_s_p50", "s", "lower")
	add("memsys.host_ns_per_instr", "ns", "lower")
	add("memsys.exec_cycles", "count", "lower")
	add("memsys.l1_hit_rate", "ratio", "higher")
	add("serve.submit_ms_p50", "ms", "lower")
	add("serve.wait_ms_p50", "ms", "lower")
	add("serve.fetch_ms_p50", "ms", "lower")
	add("serve.hit_p90_ms", "ms", "lower")
	add("serve.result_bytes_mean", "bytes", "lower")
	add("serve.cache_hit_ratio", "ratio", "higher")
	add("serve.sims_executed", "count", "higher")
	add("serve.rejected", "count", "lower")
	add("search.generation_s_p50", "s", "lower")
	add("search.evaluations", "count", "higher")
	add("search.cache_hit_ratio", "ratio", "higher")
	add("runtime.alloc_mb", "MB", "lower")
	add("runtime.gc_cycles", "count", "lower")
	out = append(out, workloadMetrics...)
	// Traced minus untraced value of each end-to-end metric: closer to 0
	// is better, which is "higher" for a rate and "lower" for a time.
	for _, m := range endToEnd {
		add("trace_overhead."+m.Name, m.Unit, m.Better)
	}
	return out
}
