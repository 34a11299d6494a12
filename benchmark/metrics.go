package main

import "filaments/internal/kernel"

// The metric catalogue: every name the benchmark prints, once. Units and
// bounds live here and nowhere else; BENCHMARK.json and README.md are
// checked against it by the tests.

// metricDef names one metric. All end-to-end metrics are lower-is-better;
// better is recorded for the per-layer ones so a reader knows which way
// is good without knowing the layer.
type metricDef struct {
	name, unit, better string
	// bound is the share of the median by which an end-to-end metric may
	// worsen before a change counts as a regression; 0 means exact.
	bound float64
	// source says where the number comes from: probe, counter, span, or
	// run (measured around Run by the benchmark itself).
	source string
}

// Units. Virtual seconds get their own unit so nobody compares them with
// host seconds; they repeat exactly, which no host time does.
const (
	uS, uUS, uNS   = "s", "us", "ns"
	uSimS          = "sim_s"
	uMB, uKB       = "MB", "KB"
	uCount, uRatio = "count", "ratio"
	uPct, uPerS    = "%", "1/s"
)

// endToEnd is what a user of the system sees. setup_s is every second of
// a repetition outside Run — reference solution, constructors, Alloc*,
// verification, teardown, the collection between repetitions — so work
// moved out of Run shows here.
//
// The three clock bounds are as wide as a bound may be. On the 2-vCPU
// virtual machine this was written on, the same binary runs a quarter
// slower for stretches of fifteen seconds to minutes (steal time shows
// some of it, a busy neighbour on the core the rest), and ten runs of one
// workload spread 4-13 % between their quartiles; README.md has the
// numbers. A tighter bound would call that noise a regression. The
// counts — bytes allocated, bytes on the wire, virtual time — repeat to a
// fraction of a percent or exactly, and are bounded accordingly.
var endToEnd = []metricDef{
	{"wall_s", uS, "lower", 0.25, "run"},
	{"cpu_s", uS, "lower", 0.25, "run"},
	{"setup_s", uS, "lower", 0.25, "run"},
	{"alloc_mb", uMB, "lower", 0.02, "run"},
	{"wire_mb", uMB, "lower", 0.01, "counter"},
	{"vtime_s", uSimS, "lower", 0, "run"},
	{"fail_share", uRatio, "lower", 0, "run"},
}

// definedOn reports whether an end-to-end metric exists on a workload:
// wire_mb depends on how many steals happened on udp-quad-forkjoin, and
// vtime_s exists only in the simulation. The other five are everywhere.
func definedOn(metric string, w workload) bool {
	switch metric {
	case "wire_mb":
		return w.name != "udp-quad-forkjoin"
	case "vtime_s":
		return w.sim
	}
	return true
}

// everywhere lists the end-to-end metrics defined on all five workloads,
// which are the ones a single-workload run reports as end-to-end; the
// rest ride with the per-layer set there.
func everywhere(metric string) bool {
	return metric != "wire_mb" && metric != "vtime_s" && metric != "fail_share"
}

// perLayer is the ladder, named after the repo's modules, bottom up.
var perLayer = []metricDef{
	// rtnode: the tag-8 [][]float64 codec on one 4 KB row, and
	// Transport.Call between two Nodes under their monitors.
	{"rtnode.codec_page_enc_ns", uNS, "lower", 0, "probe"},
	{"rtnode.codec_page_dec_ns", uNS, "lower", 0, "probe"},
	{"rtnode.codec_page_allocs", uCount, "lower", 0, "probe"},
	{"rtnode.call_small_us", uUS, "lower", 0, "probe"},
	{"rtnode.call_small_p99_us", uUS, "lower", 0, "probe"},
	{"rtnode.call_page_us", uUS, "lower", 0, "probe"},
	{"rtnode.handoff_us", uUS, "lower", 0, "probe"},

	// udptrans: Endpoint.Call echo on loopback.
	{"udptrans.rtt_small_us", uUS, "lower", 0, "probe"},
	{"udptrans.rtt_small_p99_us", uUS, "lower", 0, "probe"},
	{"udptrans.rtt_page_us", uUS, "lower", 0, "probe"},
	{"udptrans.calls_per_s_1", uPerS, "higher", 0, "probe"},
	{"udptrans.calls_per_s_n", uPerS, "higher", 0, "probe"},
	{"udptrans.allocs_per_call", uCount, "lower", 0, "probe"},
	{"udptrans.requests", uCount, "lower", 0, "counter"},
	{"udptrans.retransmits", uCount, "lower", 0, "counter"},
	{"udptrans.retransmit_share", uRatio, "lower", 0, "counter"},
	{"udptrans.dropped", uCount, "lower", 0, "counter"},
	{"udptrans.inflight_hwm", uCount, "lower", 0, "counter"},
	{"udptrans.bytes_per_request", uCount, "lower", 0, "counter"},

	// dsm: access and fault latency on a 2-node UDP cluster.
	{"dsm.read_hit_ns", uNS, "lower", 0, "probe"},
	{"dsm.write_hit_ns", uNS, "lower", 0, "probe"},
	{"dsm.read_fault_ii_us", uUS, "lower", 0, "probe"},
	{"dsm.read_fault_ii_p99_us", uUS, "lower", 0, "probe"},
	{"dsm.read_fault_wi_us", uUS, "lower", 0, "probe"},
	{"dsm.read_fault_mig_us", uUS, "lower", 0, "probe"},
	{"dsm.write_fault_wi_us", uUS, "lower", 0, "probe"},
	{"dsm.lrc_release_us", uUS, "lower", 0, "probe"},
	{"dsm.read_faults", uCount, "lower", 0, "counter"},
	{"dsm.write_faults", uCount, "lower", 0, "counter"},
	{"dsm.served", uCount, "lower", 0, "counter"},
	{"dsm.redirected", uCount, "lower", 0, "counter"},
	{"dsm.busy_drops", uCount, "lower", 0, "counter"},
	{"dsm.mirage_drops", uCount, "lower", 0, "counter"},
	{"dsm.invals_sent", uCount, "lower", 0, "counter"},
	{"dsm.lrc_merges", uCount, "lower", 0, "counter"},
	{"dsm.twin_kb", uKB, "lower", 0, "counter"},
	{"dsm.diff_share", uRatio, "higher", 0, "counter"},
	{"dsm.fault_wait_share", uRatio, "lower", 0, "counter"},
	{"dsm.fault_span_p50_us", uUS, "lower", 0, "span"},
	{"dsm.fault_span_p99_us", uUS, "lower", 0, "span"},

	// reduce: the tournament barrier on an empty program.
	{"reduce.barrier_us_2", uUS, "lower", 0, "probe"},
	{"reduce.barrier_us_4", uUS, "lower", 0, "probe"},
	{"reduce.barrier_p99_us_4", uUS, "lower", 0, "probe"},
	{"reduce.reduce_us_4", uUS, "lower", 0, "probe"},
	{"reduce.barriers", uCount, "lower", 0, "counter"},
	{"reduce.barrier_span_p50_us", uUS, "lower", 0, "span"},
	{"reduce.barrier_wait_share", uRatio, "lower", 0, "span"},

	// filament: create, dispatch, fork/join.
	{"filament.create_ns", uNS, "lower", 0, "probe"},
	{"filament.run_inlined_ns", uNS, "lower", 0, "probe"},
	{"filament.run_plain_ns", uNS, "lower", 0, "probe"},
	{"filament.fj_local_ns", uNS, "lower", 0, "probe"},
	{"filament.fj_remote_us", uUS, "lower", 0, "probe"},
	{"filament.run", uCount, "lower", 0, "counter"},
	{"filament.inlined_share", uRatio, "higher", 0, "counter"},
	{"filament.tasks", uCount, "lower", 0, "counter"},
	{"filament.forks_sent", uCount, "lower", 0, "counter"},
	{"filament.steals_attempted", uCount, "lower", 0, "counter"},
	{"filament.steal_grant_share", uRatio, "higher", 0, "counter"},
	{"filament.tasks_per_s", uPerS, "higher", 0, "counter"},

	// sim, threads, packet, simnet: the simulator's own cost and the
	// exact figures of the four sim legs.
	{"sim.events_per_s", uPerS, "higher", 0, "probe"},
	{"sim.proc_switch_ns", uNS, "lower", 0, "probe"},
	{"sim.host_s_jacobi", uS, "lower", 0, "run"},
	{"sim.host_s_quad", uS, "lower", 0, "run"},
	{"sim.host_s_writeshare_lrc", uS, "lower", 0, "run"},
	{"sim.host_s_writeshare_wi", uS, "lower", 0, "run"},
	{"sim.vtime_s_jacobi", uSimS, "lower", 0, "run"},
	{"sim.vtime_s_quad", uSimS, "lower", 0, "run"},
	{"sim.vtime_s_writeshare_lrc", uSimS, "lower", 0, "run"},
	{"sim.vtime_s_writeshare_wi", uSimS, "lower", 0, "run"},
	{"sim.host_ns_per_filament", uNS, "lower", 0, "run"},
	{"threads.switches", uCount, "lower", 0, "counter"},
	{"simnet.frames", uCount, "lower", 0, "counter"},
	{"simnet.utilization", uRatio, "lower", 0, "counter"},
	{"packet.retransmits", uCount, "lower", 0, "counter"},
	{"threads.share_work", uRatio, "higher", 0, "counter"},
	{"threads.share_filament", uRatio, "lower", 0, "counter"},
	{"threads.share_data", uRatio, "lower", 0, "counter"},
	{"threads.share_sync", uRatio, "lower", 0, "counter"},
	{"threads.share_sync_delay", uRatio, "lower", 0, "counter"},
	{"threads.share_idle", uRatio, "lower", 0, "counter"},

	// obs and the benchmark's own spans.
	{"obs.trace_overhead_pct", uPct, "lower", 0, "span"},
	{"app.step_p50_us", uUS, "lower", 0, "span"},
	{"app.step_p99_us", uUS, "lower", 0, "span"},
	{"app.runpools_share", uRatio, "higher", 0, "span"},
	{"app.sync_share", uRatio, "lower", 0, "span"},
}

// ledgerMetric names the Fig 10 ledger share of one accounting category.
var ledgerMetric = [kernel.NumCategories]string{
	kernel.CatWork:      "threads.share_work",
	kernel.CatFilament:  "threads.share_filament",
	kernel.CatData:      "threads.share_data",
	kernel.CatSync:      "threads.share_sync",
	kernel.CatSyncDelay: "threads.share_sync_delay",
	kernel.CatIdle:      "threads.share_idle",
}
