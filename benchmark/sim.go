package main

import (
	"filaments"
	"filaments/internal/kernel"
)

// sim-8node: the three programs on the deterministic simulation, 8 nodes,
// paper cost constants. Virtual time is exact — a kernel refactor must
// leave it bit-identical, a protocol change shows as a diff — and host
// time is what the simulator itself costs (sim, threads, packet, simnet;
// no sockets). The write-invalidate writeshare leg covers invalidation
// rounds, Mirage drops and Packet retransmits reproducibly, which no UDP
// workload can.

// simLeg is one simulated run inside a sim-8node repetition.
type simLeg struct {
	name   string
	host   float64 // seconds of host time inside Run
	vtime  float64 // simulated seconds
	ledger [kernel.NumCategories]float64
	// Cluster-wide counts of this leg alone.
	filaments, switches, frames int64
	netBusy                     float64 // simulated seconds the medium was busy
}

var simLegNames = []string{"jacobi", "quad", "writeshare_lrc", "writeshare_wi"}

func simLegs(sz sizes, seed int64, traced bool) repetition {
	r := repetition{nodes: simNodes}
	jc := jacobiCfg{n: sz.simJacobiN, iters: sz.simIters, nodes: simNodes, seed: seed}
	qc := quadCfg{tol: sz.simQuadTol, maxDepth: 40, seed: seed}
	lrc := wsCfg{nodes: simNodes, rounds: sz.simWSRoundsLRC, seed: seed}
	wi := wsCfg{nodes: simNodes, rounds: sz.simWSRoundsWI, seed: seed}
	legs := []struct {
		cfg   filaments.Config
		build builder
	}{
		{filaments.Config{Protocol: filaments.ImplicitInvalidate}, jacobiBuilder(jc)},
		{filaments.Config{Stealing: true, WakeFront: true}, quadBuilder(qc)},
		{filaments.Config{Protocol: filaments.LazyRelease}, writeshareBuilder(lrc)},
		{filaments.Config{Protocol: filaments.WriteInvalidate}, writeshareBuilder(wi)},
	}
	for i, leg := range legs {
		leg.cfg.Nodes, leg.cfg.Seed = simNodes, seed
		runSimLeg(&r, simLegNames[i], leg.cfg, traced, leg.build)
	}
	return r
}

func runSimLeg(r *repetition, name string, cfg filaments.Config, traced bool, build builder) {
	sp := r.startTrace(name, traced)
	if sp != nil {
		cfg.Tracer = sp.tr
	}
	cl := filaments.New(cfg)
	prog, check := build(cl, sp)
	wall0 := r.wall
	m := startMeter()
	rep, err := cl.Run(prog)
	m.stop(r)
	if err != nil {
		r.fail("%s: %v", name, err)
		return
	}
	counters := make(map[string]int64, len(rep.Metrics))
	for _, s := range rep.Metrics {
		counters[s.Name] = s.Value
	}
	if n := cl.Outstanding(); n != 0 {
		r.fail("%s: %d requests outstanding after Run", name, n)
	} else if msg := check(cl, counters); msg != "" {
		r.fail("%s: %s", name, msg)
	}
	leg := simLeg{name: name, host: r.wall - wall0, vtime: rep.Seconds(),
		frames: rep.Net.FramesSent, netBusy: rep.Net.Busy.Seconds()}
	var total float64
	for _, nr := range rep.PerNode {
		leg.switches += nr.Switches
		for c, d := range nr.CPU {
			leg.ledger[c] += d.Seconds()
			total += d.Seconds()
		}
	}
	for c := range leg.ledger {
		leg.ledger[c] /= total
	}
	leg.filaments = counters["fil.run"]
	r.legs = append(r.legs, leg)
	r.vtime += leg.vtime
	r.wireMB += float64(rep.Net.BytesSent) / 1e6
	r.addCounters(rep.Metrics)
	r.endTrace(sp)
}
