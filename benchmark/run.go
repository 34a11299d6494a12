package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// result is one workload's measurement: the timed, untraced repetitions
// every end-to-end metric comes from, and the traced ones the span
// metrics come from. End-to-end metrics are never taken from a traced
// repetition.
type result struct {
	w         workload
	reps      []repetition
	traced    []repetition
	attempted int // every repetition started, warm-ups and traced included
	failed    int
}

// errAbandoned reports a repetition that passed its deadline and is
// still running: nothing further can be measured in this process.
var errAbandoned = fmt.Errorf("a repetition passed its deadline; the benchmark cannot continue")

// repeat runs repetitions of w while more(done, elapsed) holds, with a
// collection after each so one repetition's garbage is not collected on
// the next one's clock. It counts every repetition and every failure.
func (res *result) repeat(log io.Writer, sz sizes, seed int64, traced bool, phase string,
	more func(done int, elapsed time.Duration) bool) ([]repetition, error) {
	var out []repetition
	start := time.Now()
	for more(len(out), time.Since(start)) {
		t0 := time.Now()
		r, timedOut := watchdog(func() repetition { return res.w.rep(sz, seed, traced) })
		runtime.GC()
		r.total = time.Since(t0).Seconds()
		res.attempted++
		if r.failure != "" {
			res.failed++
			fmt.Fprintf(log, "%s: %s repetition %d FAILED: %s\n", res.w.name, phase, len(out), r.failure)
		} else {
			fmt.Fprintf(log, "%s: %s repetition %d: wall %.4f s, cpu %.4f s, setup %.4f s, %d retransmits\n",
				res.w.name, phase, len(out), r.wall, r.cpu, r.setup(), r.counters["net.retransmits"])
		}
		if timedOut {
			return out, errAbandoned
		}
		out = append(out, r)
	}
	return out, nil
}

func times(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done < n }
}

// atLeast keeps going until both n repetitions and d have passed.
func atLeast(n int, d time.Duration) func(int, time.Duration) bool {
	return func(done int, elapsed time.Duration) bool { return done < n || elapsed < d }
}

// measure runs the workload's warm-up and timed repetitions. Warm-ups
// are discarded: the first one or two repetitions in a fresh process run
// on cold caches, an empty heap and unstarted runtime threads, and can
// be several times faster or slower than the steady state.
func measure(log io.Writer, w workload, sz sizes, seed int64, timed func(int, time.Duration) bool) (*result, error) {
	res := &result{w: w}
	warmups := sz.warmups
	if w.sim {
		warmups = sz.simWarmups
	}
	if _, err := res.repeat(log, sz, seed, false, "warm-up", times(warmups)); err != nil {
		return res, err
	}
	var err error
	res.reps, err = res.repeat(log, sz, seed, false, "timed", timed)
	return res, err
}

// trace adds the traced repetitions.
func (res *result) trace(log io.Writer, sz sizes, seed int64, more func(int, time.Duration) bool) error {
	var err error
	res.traced, err = res.repeat(log, sz, seed, true, "traced", more)
	return err
}

// endToEndValues returns one value per timed repetition.
func (res *result) endToEndValues(metric string) []float64 {
	if metric == "fail_share" {
		return []float64{float64(res.failed) / float64(max(res.attempted, 1))}
	}
	vals := make([]float64, len(res.reps))
	for i, r := range res.reps {
		switch metric {
		case "wall_s":
			vals[i] = r.wall
		case "cpu_s":
			vals[i] = r.cpu
		case "setup_s":
			vals[i] = r.setup()
		case "alloc_mb":
			vals[i] = r.allocMB
		case "wire_mb":
			vals[i] = r.wireMB
		case "vtime_s":
			vals[i] = r.vtime
		}
	}
	return vals
}

func (res *result) endToEnd(metric string) summary { return summarize(res.endToEndValues(metric)) }

// ratio is a/b, or 0 for an empty denominator: a share of nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics derives the per-layer counter metrics of one repetition.
// Metrics of a layer the workload does not run are 0: no datagram crosses
// udptrans in the simulation, and no simulated frame moves under UDP.
func counterMetrics(w workload, r repetition) map[string]float64 {
	c := func(name string) float64 { return float64(r.counters[name]) }
	clock := r.wall // the clock dsm.fault_wait_ns was taken on
	m := map[string]float64{}
	if w.sim {
		clock = r.vtime
		m["packet.retransmits"] = c("net.retransmits")
	} else {
		m["udptrans.requests"] = c("net.requests_sent")
		m["udptrans.retransmits"] = c("net.retransmits")
		m["udptrans.retransmit_share"] = ratio(c("net.retransmits"), c("net.requests_sent"))
		m["udptrans.dropped"] = c("net.dropped")
		m["udptrans.inflight_hwm"] = float64(r.hwm)
		m["udptrans.bytes_per_request"] = ratio(c("net.bytes_sent"), c("net.requests_sent"))
	}
	for _, name := range []string{"read_faults", "write_faults", "served", "redirected",
		"busy_drops", "mirage_drops", "invals_sent", "lrc_merges"} {
		m["dsm."+name] = c("dsm." + name)
	}
	m["dsm.twin_kb"] = c("dsm.twin_bytes") / 1024
	m["dsm.diff_share"] = ratio(c("dsm.diff_bytes"), c("dsm.bytes_out"))
	// Thread-seconds spent waiting on faults per node-second: above 1 when
	// a node's pools fault concurrently or a woken thread queues behind
	// computation.
	m["dsm.fault_wait_share"] = ratio(c("dsm.fault_wait_ns")/1e9, float64(r.nodes)*clock)
	m["reduce.barriers"] = ratio(c("reduce.barriers"), float64(r.nodes))
	m["filament.run"] = c("fil.run")
	m["filament.inlined_share"] = ratio(c("fil.inlined"), c("fil.run"))
	// Every fork/join task however it was dispatched — shipped, kept as a
	// filament, or pruned to a call — plus the root.
	if forks := c("fil.forks_sent") + c("fil.forks_kept") + c("fil.forks_pruned"); forks > 0 {
		m["filament.tasks"] = forks + 1
	}
	m["filament.forks_sent"] = c("fil.forks_sent")
	m["filament.steals_attempted"] = c("fil.steals_attempted")
	m["filament.steal_grant_share"] = ratio(c("fil.steals_granted"), c("fil.steals_attempted"))
	m["filament.tasks_per_s"] = ratio(m["filament.tasks"], r.wall)

	var busy, vtime float64
	for _, leg := range r.legs {
		m["sim.host_s_"+leg.name] = leg.host
		m["sim.vtime_s_"+leg.name] = leg.vtime
		m["threads.switches"] += float64(leg.switches)
		m["simnet.frames"] += float64(leg.frames)
		busy += leg.netBusy
		vtime += leg.vtime
		if leg.name == "jacobi" {
			m["sim.host_ns_per_filament"] = ratio(leg.host*1e9, float64(leg.filaments))
			for cat, share := range leg.ledger {
				m[ledgerMetric[cat]] = share
			}
		}
	}
	if len(r.legs) > 0 {
		m["simnet.utilization"] = ratio(busy, vtime)
	}
	return m
}

// counterLayer is the median over the timed repetitions of each counter
// metric.
func (res *result) counterLayer() map[string]float64 {
	per := map[string][]float64{}
	for _, r := range res.reps {
		for name, v := range counterMetrics(res.w, r) {
			per[name] = append(per[name], v)
		}
	}
	out := make(map[string]float64, len(per))
	for name, vs := range per {
		out[name] = median(vs)
	}
	return out
}

// spanLayer derives the span metrics from the traced repetitions, pooled.
func (res *result) spanLayer() map[string]float64 {
	var st spanStats
	var tracedWall []float64
	for _, r := range res.traced {
		st.add(r.spans)
		tracedWall = append(tracedWall, r.wall)
	}
	m := map[string]float64{
		"dsm.fault_span_p50_us":      median(st.faults) / 1e3,
		"dsm.fault_span_p99_us":      tail(st.faults, 99) / 1e3,
		"reduce.barrier_span_p50_us": median(st.barriers) / 1e3,
		"reduce.barrier_wait_share":  ratio(st.barrierAll, st.runAll),
		"app.step_p50_us":            median(st.steps) / 1e3,
		"app.step_p99_us":            tail(st.steps, 99) / 1e3,
		"app.runpools_share":         ratio(st.compute, st.run),
		"app.sync_share":             ratio(st.sync, st.run),
	}
	if base := res.endToEnd("wall_s").Median; base > 0 && len(tracedWall) > 0 {
		m["obs.trace_overhead_pct"] = (median(tracedWall)/base - 1) * 100
	}
	return m
}

// usualCount returns the most common value of a counter over the timed
// repetitions. A repetition whose retransmit or Mirage-drop count differs
// from it spent a different number of 50 ms retransmit timers and is
// flagged as timer-bound.
func (res *result) usualCount(counter string) int64 {
	seen := map[int64]int{}
	var best int64
	for _, r := range res.reps {
		v := r.counters[counter]
		seen[v]++
		if seen[v] > seen[best] || (seen[v] == seen[best] && v < best) {
			best = v
		}
	}
	return best
}

func (res *result) timerBound(r repetition) bool {
	return r.counters["net.retransmits"] != res.usualCount("net.retransmits") ||
		r.counters["dsm.mirage_drops"] != res.usualCount("dsm.mirage_drops")
}
