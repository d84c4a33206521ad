package main

// workloadDef is one benchmark workload: a pinned full-scale experiment
// document run with the benchmark's seed.
type workloadDef struct {
	Name string
	// Spec is the document's path relative to the repository root.
	Spec string
	// Why is the one-line reason the workload is in the benchmark; it is
	// also BENCHMARK.json's "why".
	Why string
}

// workloads contrast the layers an optimisation may touch: wl and heavy GC
// work only on wear-zipf, trace capture and replay only on trace-replay, and
// each bypasses the other's (see README.md). Two workloads, not more, so
// that each run can measure for 55 s within the benchmark's time limit.
var workloads = []workloadDef{
	{"wear-zipf", "specs/full/e4.json",
		"E4: zipf overwrite, heavy GC, 4 WL modes each aging its own device; the only workload where wl works (exercises wl, gc; bypasses hotcold, trace)"},
	{"trace-replay", "specs/full/e13.json",
		"E13: one captured trace replayed by 8 variants from 1 shared prepared device (exercises trace, snapshot decode, core.Restore, sched policies; bypasses wl)"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the host-side metrics a researcher running a sweep sees.
// Simulated statistics are checked against the reference, not scored. The
// same sweep on a shared 2-vCPU virtual machine ran up to twice as long in
// some minutes as in others, so time bounds sit at 0.25, the most allowed;
// allocation repeats to about 1%.
var endToEnd = []metricDef{
	{"sweep_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"allocs_m", "Mobjects", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.2},
	{"sim_ios_per_s", "IO/s", "higher", 0.25},
}

// perLayer are the traced run's metrics, named <module>.<what>. The
// *_share and *_mb profile metrics cover the whole traced run; counts are
// summed over the re-driven variants' measurement windows.
var perLayer = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "wl.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "wl.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "wl.scans", Unit: "count", Better: "lower"},
	{Name: "wl.migrated_pages", Unit: "count", Better: "lower"},
	{Name: "workload.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "workload.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "controller.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "controller.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "osched.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "osched.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "hotcold.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "gc.migrated_pages", Unit: "count", Better: "lower"},
	{Name: "gc.erases", Unit: "count", Better: "lower"},
	{Name: "gc.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "flash.ops", Unit: "count", Better: "lower"},
	{Name: "flash.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "ftl.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "ftl.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "experiment.prep_builds", Unit: "count", Better: "lower"},
	{Name: "experiment.prep_hits", Unit: "count", Better: "higher"},
	{Name: "experiment.prep_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "experiment.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.state_mb", Unit: "MB", Better: "lower"},
	{Name: "spec.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "snapshot.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sim_s", Unit: "s", Better: "lower"},
	{Name: "controller.app_ios", Unit: "count", Better: "higher"},
	{Name: "experiment.variant_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiment.variant_ms_max", Unit: "ms", Better: "lower"},
	{Name: "runtime.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "resultstore.append_ms", Unit: "ms", Better: "lower"},
}
