package bench

import (
	"fmt"
	"io"

	"filaments"
	"filaments/internal/apps/exprtree"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/quadrature"
	"filaments/internal/cost"
	"filaments/internal/sim"
)

// Ablations for the design choices DESIGN.md calls out: each isolates one
// mechanism the paper introduces and measures the system with and without
// it.

func init() {
	register("abl-pcp", "Ablation: page consistency protocol sweep on Jacobi", ablPCP)
	register("abl-overlap", "Ablation: multithreaded overlap (pools) on Jacobi", ablOverlap)
	register("abl-steal", "Ablation: receiver-initiated load balancing", ablSteal)
	register("abl-barrier", "Ablation: tournament vs centralized barrier", ablBarrier)
	register("abl-mirage", "Ablation: Mirage time window under false sharing", ablMirage)
	register("abl-frag", "Ablation: packet loss resilience (Packet under injected loss)", ablLoss)
	register("abl-autopool", "Ablation: automatic pool clustering vs hand assignment", ablAutoPool)
	register("abl-dissem", "Ablation: dissemination barrier vs tournament", ablDissem)
}

// ablAutoPool compares the hand-written jacobi pool layout with the
// runtime's automatic clustering (create one pool per fault signature,
// then adaptively consolidate the never-faulting ones) and the single-pool
// baseline.
func ablAutoPool(w io.Writer, o Options) {
	cfg := jacobi.Config{Nodes: 8}
	if o.Quick {
		cfg.N = 128
		cfg.Iters = 60
	}
	fmt.Fprintf(w, "Jacobi on 8 nodes: pool assignment strategies\n")
	hand, _, _ := runDF("jacobi", cfg.Nodes, nil, jacobi.Setup, cfg)
	a := cfg
	a.AutoPools = true
	auto, _, cl := runDF("jacobi", cfg.Nodes, nil, jacobi.Setup, a)
	s := cfg
	s.SinglePool = true
	single, _, _ := runDF("jacobi", cfg.Nodes, nil, jacobi.Setup, s)
	fmt.Fprintf(w, "  hand pools (top/bottom/interior): %8.1f s\n", hand.Seconds())
	fmt.Fprintf(w, "  automatic clustering:             %8.1f s (%d pools on node 1 after consolidation)\n",
		auto.Seconds(), len(cl.Runtime(1).PoolOrder()))
	fmt.Fprintf(w, "  single pool:                      %8.1f s\n", single.Seconds())
}

// ablDissem compares the tournament barrier with the butterfly
// dissemination allreduce on power-of-two clusters.
func ablDissem(w io.Writer, o Options) {
	fmt.Fprintf(w, "1000 reductions: tournament vs dissemination butterfly\n")
	fmt.Fprintf(w, "  %-6s %16s %18s %14s %14s\n", "Nodes", "tournament (ms)", "dissemination (ms)", "frames/barrier", "(tournament)")
	for _, p := range []int{2, 4, 8, 16} {
		var times [2]float64
		var frames [2]int64
		for i, dis := range []bool{false, true} {
			cl := filaments.New(filaments.Config{Nodes: p, DisseminationBarrier: dis})
			rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
				for k := 0; k < 1000; k++ {
					e.Reduce(1, filaments.Sum)
				}
			})
			if err != nil {
				panic(err)
			}
			times[i] = rep.Elapsed.Milliseconds() / 1000
			frames[i] = rep.Net.FramesSent / 1000
		}
		fmt.Fprintf(w, "  %-6d %16.2f %18.2f %14d %14d\n", p, times[0], times[1], frames[1], frames[0])
	}
	fmt.Fprintf(w, "  (the butterfly trades O(p log p) messages for fully parallel rounds)\n")
}

// ablPCP sweeps the three protocols over Jacobi.
func ablPCP(w io.Writer, o Options) {
	cfg := jacobi.Config{Nodes: 8}
	if o.Quick {
		cfg.N = 128
		cfg.Iters = 60
	}
	fmt.Fprintf(w, "Jacobi on 8 nodes under each page consistency protocol\n")
	for _, proto := range []filaments.Protocol{
		filaments.ImplicitInvalidate, filaments.WriteInvalidate, filaments.Migratory,
	} {
		rep, _, cl := runDF("jacobi", cfg.Nodes, under(proto), jacobi.Setup, cfg)
		var invals, faults int64
		for i := 0; i < cfg.Nodes; i++ {
			st := cl.Runtime(i).DSM().Stats()
			invals += st.InvalsSent
			faults += st.ReadFaults + st.WriteFaults
		}
		fmt.Fprintf(w, "  %-20v %8.1f s   faults=%-6d invalidations=%d\n",
			cl.Runtime(0).DSM().Protocol(), rep.Seconds(), faults, invals)
	}
	fmt.Fprintf(w, "  (implicit-invalidate must win: same faults, zero invalidations)\n")
}

// ablOverlap compares 3-pool and single-pool Jacobi across cluster sizes —
// the paper's 9%%/21%% overlap claim generalized.
func ablOverlap(w io.Writer, o Options) {
	cfg := jacobi.Config{}
	if o.Quick {
		cfg.N = 128
		cfg.Iters = 60
	}
	fmt.Fprintf(w, "Jacobi: communication/computation overlap from multiple pools\n")
	fmt.Fprintf(w, "  %-6s %12s %12s %12s\n", "Nodes", "3 pools (s)", "1 pool (s)", "gain")
	for _, p := range []int{2, 4, 8} {
		c := cfg
		multi, _, _ := runDF("jacobi", p, nil, jacobi.Setup, c)
		c.SinglePool = true
		single, _, _ := runDF("jacobi", p, nil, jacobi.Setup, c)
		fmt.Fprintf(w, "  %-6d %12.1f %12.1f %11.1f%%\n", p,
			multi.Seconds(), single.Seconds(),
			100*(single.Seconds()-multi.Seconds())/single.Seconds())
	}
	fmt.Fprintf(w, "  paper: 9%% on 4 nodes, 21%% on 8\n")
}

// ablSteal measures dynamic load balancing where it should win (adaptive
// quadrature) and where the paper says it does not pay (balanced trees).
func ablSteal(w io.Writer, o Options) {
	qcfg := quadrature.Config{Nodes: 8}
	if o.Quick {
		qcfg.Tol = 1e-4
	}
	ecfg := exprtree.Config{Nodes: 8}
	if o.Quick {
		ecfg.Height = 5
		ecfg.N = 24
	}
	fmt.Fprintf(w, "receiver-initiated load balancing on 8 nodes\n")
	// The cluster's Stealing setting is the paper's programmer-controllable
	// switch: the table turns it on for quadrature and off for the trees.
	steal := func(on bool) func(*filaments.Config) {
		return func(fc *filaments.Config) { fc.Stealing = on }
	}
	qOn, _, _ := runDF("quadrature", qcfg.Nodes, nil, quadrature.Setup, qcfg)
	qOff, _, _ := runDF("quadrature", qcfg.Nodes, steal(false), quadrature.Setup, qcfg)
	fmt.Fprintf(w, "  adaptive quadrature: stealing %8.1f s, no stealing %8.1f s (imbalanced: stealing must win)\n",
		qOn.Seconds(), qOff.Seconds())
	eOff, _, _ := runDF("exprtree", ecfg.Nodes, nil, exprtree.Setup, ecfg)
	eOn, _, _ := runDF("exprtree", ecfg.Nodes, steal(true), exprtree.Setup, ecfg)
	fmt.Fprintf(w, "  expression trees:    stealing %8.1f s, no stealing %8.1f s (balanced: paper says stealing \"does not pay\")\n",
		eOn.Seconds(), eOff.Seconds())
}

// ablBarrier compares the tournament barrier with the centralized
// coordinator baseline.
func ablBarrier(w io.Writer, o Options) {
	fmt.Fprintf(w, "1000 barriers: tournament (paper) vs centralized coordinator\n")
	fmt.Fprintf(w, "  %-6s %16s %16s\n", "Nodes", "tournament (ms)", "central (ms)")
	for _, p := range []int{2, 4, 8, 16} {
		var times [2]float64
		for i, central := range []bool{false, true} {
			cl := filaments.New(filaments.Config{Nodes: p, CentralBarrier: central})
			rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
				for k := 0; k < 1000; k++ {
					e.Barrier()
				}
			})
			if err != nil {
				panic(err)
			}
			times[i] = rep.Elapsed.Milliseconds() / 1000
		}
		fmt.Fprintf(w, "  %-6d %16.2f %16.2f\n", p, times[0], times[1])
	}
	fmt.Fprintf(w, "  (the coordinator serializes p-1 merges; the tournament pipelines them)\n")
}

// ablMirage stresses two writers false-sharing one page, with and without
// the Mirage window. Without the window the page can bounce between the
// nodes forever with neither writer progressing (each arrival is handed
// straight to the peer's queued request before the local thread runs), so
// the ablation measures progress within a fixed virtual time budget.
func ablMirage(w io.Writer, o Options) {
	fmt.Fprintf(w, "two nodes alternately writing one page (false sharing), 1 virtual second\n")
	for _, window := range []sim.Duration{0, 2 * sim.Millisecond, 10 * sim.Millisecond} {
		rounds, moves := runMirageStress(window)
		fmt.Fprintf(w, "  window %-8v rounds completed %-6d page moves %d\n",
			window, rounds, moves)
	}
	fmt.Fprintf(w, "  (the window amortizes each page move over a burst of local writes;\n")
	fmt.Fprintf(w, "   with window 0 the writers can starve completely)\n")
}

func runMirageStress(window sim.Duration) (int, int64) {
	var model filaments.CostModel
	cl := filaments.New(filaments.Config{Nodes: 2, Protocol: filaments.WriteInvalidate,
		Model: mirageModel(&model, window)})
	addr := cl.AllocOwned(8*64, 0)
	stop := false
	// The flag ends well-behaved runs; the engine stop ends the genuine
	// livelock, whose threads never leave their first write fault.
	cl.Engine().Schedule(sim.Second, func() { stop = true })
	cl.Engine().Schedule(sim.Second+10*sim.Millisecond, func() { cl.Engine().Stop() })
	rounds := [2]int{}
	_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		// Each node updates its own 32 slots of the same page.
		for !stop {
			for k := 0; k < 32; k++ {
				slot := me*32 + k
				e.WriteF64(addr+filaments.Addr(slot*8), float64(rounds[me]))
				e.Compute(20 * sim.Microsecond)
			}
			e.Flush()
			rounds[me]++
		}
	})
	if err != nil {
		panic(err)
	}
	var served int64
	for i := 0; i < 2; i++ {
		served += cl.Runtime(i).DSM().Stats().Served
	}
	min := rounds[0]
	if rounds[1] < min {
		min = rounds[1]
	}
	return min, served
}

func mirageModel(m *filaments.CostModel, window sim.Duration) *filaments.CostModel {
	*m = cost.Default()
	m.MirageWindow = window
	return m
}

// ablLoss runs Jacobi-DF under increasing injected frame loss: Packet must
// deliver correct results with graceful slowdown, where the paper's CG
// programs simply hung ("when a message was lost, the program hung and the
// test was aborted").
func ablLoss(w io.Writer, o Options) {
	cfg := jacobi.Config{Nodes: 4, N: 128, Iters: 60}
	want := jacobi.Reference(cfg)
	fmt.Fprintf(w, "Jacobi DF on 4 nodes under injected frame loss\n")
	for _, loss := range []float64{0, 0.01, 0.05, 0.10} {
		rep, final, cl := runDF("jacobi", cfg.Nodes, func(fc *filaments.Config) { fc.LossRate = loss }, jacobi.Setup, cfg)
		grid := cl.PeekMatrix(final)
		ok := true
		for i := range grid {
			for j := range grid[i] {
				if grid[i][j] != want[i][j] {
					ok = false
				}
			}
		}
		fmt.Fprintf(w, "  loss %4.0f%%: %8.2f s, result exact: %v\n", loss*100, rep.Seconds(), ok)
	}
}
