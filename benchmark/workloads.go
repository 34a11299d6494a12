package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"filaments"
)

// The five workloads. Load shape: closed loop, one client — one Run at a
// time, each on a fresh cluster, because that is what a user pays. UDP
// workloads use 4 in-process nodes on loopback and the sim workload 8
// simulated nodes whatever the host's core count, so with fewer cores
// than nodes wall-clock scaling is not reported; counts and virtual-time
// results are.

// sizes fixes every problem size. Sizes never depend on the seed.
type sizes struct {
	commN, commIters       int // udp-jacobi-comm
	computeN, computeIters int // udp-jacobi-compute
	wsRounds               int // udp-writeshare
	quadTol                float64
	simJacobiN, simIters   int
	simQuadTol             float64
	simWSRoundsLRC         int
	simWSRoundsWI          int
	warmups, reps          int // UDP workloads
	simWarmups, simReps    int
	traceReps              int
	probeScale             int // divides every probe's sample count
}

var fullSizes = sizes{
	commN: 64, commIters: 3000,
	computeN: 512, computeIters: 100,
	wsRounds: 1000,
	quadTol:  1e-6,
	// Write-invalidate pays an invalidation round per interleaved write,
	// so its leg gets fewer rounds for the same host second.
	simJacobiN: 256, simIters: 60, simQuadTol: 1e-5, simWSRoundsLRC: 150, simWSRoundsWI: 40,
	warmups: 2, reps: 7, simWarmups: 1, simReps: 5, traceReps: 3, probeScale: 1,
}

// smokeSizes runs everything in a few seconds for the tests. Grids stay
// multiples of 64 so that strips stay page-aligned: a page with two
// writers thrashes under implicit-invalidate and measures the retransmit
// timer.
var smokeSizes = sizes{
	commN: 64, commIters: 30,
	computeN: 128, computeIters: 3,
	wsRounds:   10,
	quadTol:    1e-3,
	simJacobiN: 64, simIters: 4, simQuadTol: 1e-2, simWSRoundsLRC: 3, simWSRoundsWI: 2,
	warmups: 0, reps: 1, simWarmups: 0, simReps: 1, traceReps: 1, probeScale: 40,
}

const (
	udpNodes = 4
	simNodes = 8
	// repDeadline bounds one repetition: the bindings retransmit without
	// limit, so a lost peer would otherwise hang the benchmark.
	repDeadline = 30 * time.Second
)

type workload struct {
	name, why string
	sim       bool
	// rep runs one repetition on fresh clusters.
	rep func(sz sizes, seed int64, traced bool) repetition
}

var workloads = []workload{
	{name: "udp-jacobi-comm",
		why: "tiny grid, many sweeps: page faults, Transport.Call, datagrams and the reduction do the work, filaments little",
		rep: func(sz sizes, seed int64, traced bool) repetition {
			return udpJacobi(jacobiCfg{n: sz.commN, iters: sz.commIters, nodes: udpNodes, seed: seed}, traced)
		}},
	{name: "udp-jacobi-compute",
		why: "same program, large grid, few sweeps: filament dispatch and the DSM access check do the work, a wire-path change predicts no change",
		rep: func(sz sizes, seed int64, traced bool) repetition {
			return udpJacobi(jacobiCfg{n: sz.computeN, iters: sz.computeIters, nodes: udpNodes, seed: seed}, traced)
		}},
	{name: "udp-writeshare",
		why: "every page written by every node under lazy-release: twins, diffs, home merges and write notices, the write side of the DSM",
		rep: func(sz sizes, seed int64, traced bool) repetition {
			return runUDP(filaments.UDPConfig{Nodes: udpNodes, Protocol: filaments.LazyRelease}, "writeshare", traced,
				writeshareBuilder(wsCfg{nodes: udpNodes, rounds: sz.wsRounds, seed: seed}))
		}},
	{name: "udp-quad-forkjoin",
		why: "adaptive quadrature with stealing: fork, join, prune and steal RPCs do the work, the DSM nothing",
		rep: func(sz sizes, seed int64, traced bool) repetition {
			return runUDP(filaments.UDPConfig{Nodes: udpNodes, Stealing: true, WakeFront: true}, "quadrature", traced,
				quadBuilder(quadCfg{tol: sz.quadTol, maxDepth: 40, seed: seed}))
		}},
	{name: "sim-8node", sim: true,
		why: "the same programs in the deterministic simulation: virtual time is exact, host time is the simulator's own cost, and write-invalidate runs reproducibly",
		rep: simLegs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repetition is everything one repetition measured.
type repetition struct {
	wall, cpu float64 // seconds inside Run, summed over legs
	total     float64 // seconds for the whole repetition, set by the caller; setup = total - wall
	allocMB   float64
	wireMB    float64
	vtime     float64 // simulated seconds, sim workload only
	nodes     int
	counters  map[string]int64 // cluster-wide, summed over legs
	hwm       int64            // udptrans in-flight high-water mark, max over nodes
	legs      []simLeg         // sim workload only
	spans     spanStats        // traced repetitions only
	traces    []namedTrace     // traced repetitions only
	failure   string           // empty when the repetition verified
}

type namedTrace struct {
	name string
	tr   *filaments.Tracer
}

func (r *repetition) setup() float64 { return r.total - r.wall }

// startTrace opens a tracer for one Run of a traced repetition and
// returns the sink its node programs record into; nil when untraced.
func (r *repetition) startTrace(name string, traced bool) *spanSink {
	if !traced {
		return nil
	}
	tr := filaments.NewTracer()
	r.traces = append(r.traces, namedTrace{name, tr})
	return &spanSink{tr: tr}
}

// endTrace folds the Run's spans into the repetition.
func (r *repetition) endTrace(sp *spanSink) {
	if sp != nil {
		r.spans.add(analyse(sp.tr.Events()))
	}
}

// meter measures the interval around one Run: the benchmark's own clock,
// process CPU time, and bytes allocated.
type meter struct {
	t0    time.Time
	cpu0  float64
	alloc uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{alloc: ms.TotalAlloc, cpu0: cpuSeconds(), t0: time.Now()}
}

func (m meter) stop(r *repetition) {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.wall += wall
	r.cpu += cpu
	r.allocMB += float64(ms.TotalAlloc-m.alloc) / 1e6
}

// fail records the repetition's first failure; an empty message is none.
func (r *repetition) fail(format string, args ...any) {
	if msg := fmt.Sprintf(format, args...); r.failure == "" {
		r.failure = msg
	}
}

// builder computes a program's reference, allocates its shared data on h
// and returns the node program and the check to run after it. The check
// sees the run's cluster-wide counters and returns "" when it verified.
type builder func(h host, sp *spanSink) (filaments.Program, func(h host, counters map[string]int64) string)

func jacobiBuilder(c jacobiCfg) builder {
	return func(h host, sp *spanSink) (filaments.Program, func(host, map[string]int64) string) {
		want, residual := jacobiReference(c)
		j := newJacobi(h, c)
		return j.program(sp), func(h host, _ map[string]int64) string { return j.verify(h, want, residual) }
	}
}

func writeshareBuilder(c wsCfg) builder {
	return func(h host, sp *spanSink) (filaments.Program, func(host, map[string]int64) string) {
		pages, sums := wsReference(c)
		w := newWriteshare(h, c)
		return w.program(sp), func(h host, _ map[string]int64) string { return w.verify(h, pages, sums) }
	}
}

func quadBuilder(c quadCfg) builder {
	return func(_ host, sp *spanSink) (filaments.Program, func(host, map[string]int64) string) {
		area, tasks := quadReference(c)
		q := &quadRun{cfg: c}
		return q.program(sp), func(_ host, n map[string]int64) string {
			// Every interval is one fork, however it was dispatched.
			if got := n["fil.forks_sent"] + n["fil.forks_kept"] + n["fil.forks_pruned"] + 1; got != tasks {
				return fmt.Sprintf("quadrature ran %d tasks, the reference %d", got, tasks)
			}
			return q.verify(area)
		}
	}
}

func (r *repetition) addCounters(samples []filaments.Sample) {
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	for _, s := range samples {
		r.counters[s.Name] += s.Value
	}
}

// runUDP builds a fresh cluster, lets build compute the reference and
// allocate on it, times Run to the joined, closed cluster, and verifies.
func runUDP(cfg filaments.UDPConfig, name string, traced bool, build builder) repetition {
	r := repetition{nodes: cfg.Nodes}
	sp := r.startTrace(name, traced)
	if sp != nil {
		cfg.Tracer = sp.tr
	}
	cl, err := filaments.NewUDPCluster(cfg)
	if err != nil {
		r.fail("%v", err)
		return r
	}
	prog, check := build(cl, sp)
	m := startMeter()
	rep, err := cl.Run(prog)
	m.stop(&r)
	if rep != nil {
		r.addCounters(rep.Metrics)
		for _, nr := range rep.PerNode {
			r.hwm = max(r.hwm, nr.Transport.InFlightHWM)
		}
		r.wireMB = float64(r.counters["net.bytes_sent"]) / 1e6
	}
	switch {
	case err != nil:
		r.fail("%v", err)
	case cl.Outstanding() != 0:
		r.fail("%d requests outstanding after Run", cl.Outstanding())
	default:
		r.fail("%s", check(cl, r.counters))
	}
	r.endTrace(sp)
	return r
}

func udpJacobi(c jacobiCfg, traced bool) repetition {
	return runUDP(filaments.UDPConfig{Nodes: c.nodes, Protocol: filaments.ImplicitInvalidate}, "jacobi", traced, jacobiBuilder(c))
}

// watchdog runs one repetition under repDeadline. A repetition that
// passes it cannot be stopped — its nodes are retransmitting to a peer
// that will never answer — so it is reported as failed while it is left
// running, and the caller must not start another.
func watchdog(rep func() repetition) (r repetition, timedOut bool) {
	done := make(chan repetition, 1)
	go func() { done <- rep() }()
	select {
	case r = <-done:
		return r, false
	case <-time.After(repDeadline):
		return repetition{failure: fmt.Sprintf("passed the %v deadline", repDeadline)}, true
	}
}

// crosscheck runs Jacobi and writeshare at one small size on both
// bindings and compares the two results bitwise with each other and with
// the plain-Go reference.
func crosscheck(seed int64) string {
	r, _ := watchdog(func() repetition {
		var r repetition
		jc := jacobiCfg{n: 64, iters: 9, nodes: udpNodes, seed: seed}
		wc := wsCfg{nodes: udpNodes, rounds: 5, seed: seed}
		for _, c := range []struct {
			name  string
			proto filaments.Protocol
			want  func() [][]float64
			run   func(h host, exec func(filaments.Program) error) ([][]float64, error)
		}{
			{"jacobi", filaments.ImplicitInvalidate,
				func() [][]float64 { g, _ := jacobiReference(jc); return g },
				func(h host, exec func(filaments.Program) error) ([][]float64, error) {
					j := newJacobi(h, jc)
					err := exec(j.program(nil))
					return j.grid(h), err
				}},
			{"writeshare", filaments.LazyRelease,
				func() [][]float64 { p, _ := wsReference(wc); return p },
				func(h host, exec func(filaments.Program) error) ([][]float64, error) {
					w := newWriteshare(h, wc)
					err := exec(w.program(nil))
					return w.final(h), err
				}},
		} {
			simCl := filaments.New(filaments.Config{Nodes: udpNodes, Protocol: c.proto, Seed: seed})
			onSim, err := c.run(simCl, func(p filaments.Program) error { _, err := simCl.Run(p); return err })
			if err != nil {
				r.fail("%s in the simulation: %v", c.name, err)
				continue
			}
			udpCl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: udpNodes, Protocol: c.proto})
			if err != nil {
				r.fail("%v", err)
				continue
			}
			onUDP, err := c.run(udpCl, func(p filaments.Program) error { _, err := udpCl.Run(p); return err })
			switch {
			case err != nil:
				r.fail("%s over UDP: %v", c.name, err)
			case !gridsEqual(onSim, onUDP):
				r.fail("%s: sim and UDP results differ", c.name)
			case !gridsEqual(onSim, c.want()):
				r.fail("%s: results differ from the reference", c.name)
			}
		}
		return r
	})
	return r.failure
}
