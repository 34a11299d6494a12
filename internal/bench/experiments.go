package bench

import (
	"fmt"
	"io"

	"filaments"
	"filaments/internal/apps/exprtree"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/matmul"
	"filaments/internal/apps/quadrature"
	"filaments/internal/cost"
	fl "filaments/internal/filament"
	"filaments/internal/kernel"
	"filaments/internal/packet"
	"filaments/internal/sim"
	"filaments/internal/simnet"
	"filaments/internal/threads"
)

func init() {
	register("fig2", "Initial fork/join work distribution over the logical tree (Figure 2)", fig2)
	register("fig3", "Packet protocol scenarios (Figure 3)", fig3)
	register("fig4", "Matrix multiplication 512x512 (Figure 4)", fig4)
	register("fig5", "Jacobi iteration 256x256, 360 iterations (Figure 5)", fig5)
	register("fig6", "Adaptive quadrature, interval of length 24 (Figure 6)", fig6)
	register("fig7", "Binary expression trees, 70x70, height 7 (Figure 7)", fig7)
	register("fig8", "Barrier synchronization, 1000 barriers (Figure 8)", fig8)
	register("fig9", "Filaments overheads (Figure 9)", fig9)
	register("fig10", "Jacobi per-node overhead breakdown, 8 nodes (Figure 10)", fig10)
	register("fig11", "Jacobi with write-invalidate PCP (Figure 11)", fig11)
	register("fig12", "Jacobi, single pool / no overlap (Figure 12)", fig12)
}

// --- Figure 2 ---

func fig2(w io.Writer, o Options) {
	const nodes = 16
	firstStep := make([]int, nodes)
	cl := filaments.New(filaments.Config{Nodes: nodes})
	var firstWork [nodes]sim.Time
	_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		const fnID = 1
		var body fl.FJFunc
		body = func(e *fl.Exec, a fl.Args) float64 {
			id := e.Runtime().ID()
			if firstWork[id] == 0 {
				firstWork[id] = e.Runtime().Node().Now()
			}
			depth := a[0]
			e.Compute(200 * sim.Microsecond)
			if depth == 0 {
				return 1
			}
			rtl := e.Runtime()
			j := rtl.NewJoin()
			rtl.Fork(e, j, fnID, fl.Args{depth - 1})
			rtl.Fork(e, j, fnID, fl.Args{depth - 1})
			return j.Wait(e)
		}
		rt.RegisterFJ(fnID, body)
		rt.RunForkJoin(e, fnID, filaments.Args{10})
	})
	if err != nil {
		panic(err)
	}
	// Assign steps by arrival-time order: the number of nodes with work
	// must double each step.
	type nt struct {
		id int
		t  sim.Time
	}
	order := make([]nt, 0, nodes)
	for id, t := range firstWork {
		order = append(order, nt{id, t})
	}
	for i := range order { // insertion sort by time (stable, deterministic)
		for j := i; j > 0 && order[j].t < order[j-1].t; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	step, covered := 0, 1
	firstStep[order[0].id] = 0
	for i := 1; i < nodes; i++ {
		if i >= covered {
			step++
			covered = 1 << step
		}
		firstStep[order[i].id] = step
	}
	fmt.Fprintf(w, "step at which each of %d nodes first received work\n", nodes)
	fmt.Fprintf(w, "  paper (Figure 2): node i joins at step = 1 + floor(log2(i)); counts double per step\n")
	fmt.Fprintf(w, "  node: ")
	for id := 0; id < nodes; id++ {
		fmt.Fprintf(w, "%3d", id)
	}
	fmt.Fprintf(w, "\n  step: ")
	for id := 0; id < nodes; id++ {
		fmt.Fprintf(w, "%3d", firstStep[id])
	}
	fmt.Fprintln(w)
	counts := map[int]int{}
	for _, s := range firstStep {
		counts[s]++
	}
	fmt.Fprintf(w, "  nodes newly busy per step:")
	for s := 0; s <= step; s++ {
		fmt.Fprintf(w, " %d", counts[s])
	}
	fmt.Fprintf(w, "  (want 1 1 2 4 8)\n")
}

// --- Figure 3 ---

func fig3(w io.Writer, o Options) {
	scenarios := []struct {
		name  string
		setup func(nw *simnet.Network, m *cost.Model)
	}{
		{"(a) no problems", func(nw *simnet.Network, m *cost.Model) {}},
		// In each lossy scenario the second frame from the relevant node
		// is the DSM page request/reply (the first is barrier traffic).
		{"(b) request lost", func(nw *simnet.Network, m *cost.Model) {
			n := 0
			nw.DropFilter = func(f *simnet.Frame) bool {
				if f.Src == 1 {
					n++
					return n == 2
				}
				return false
			}
		}},
		{"(c) reply lost", func(nw *simnet.Network, m *cost.Model) {
			n := 0
			nw.DropFilter = func(f *simnet.Frame) bool {
				if f.Src == 0 {
					n++
					return n == 2
				}
				return false
			}
		}},
		{"(d) reply delayed", func(nw *simnet.Network, m *cost.Model) {
			n := 0
			nw.DelayFilter = func(f *simnet.Frame) sim.Duration {
				if f.Src == 0 {
					n++
					if n == 2 {
						return m.RetransmitTimeout + 10*sim.Millisecond
					}
				}
				return 0
			}
		}},
	}
	for _, sc := range scenarios {
		cl := filaments.New(filaments.Config{Nodes: 2, Protocol: filaments.ImplicitInvalidate})
		addr := cl.AllocOwned(8, 0)
		sc.setup(cl.Network(), cl.Model())
		var got float64
		var elapsed sim.Duration
		_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			if rt.ID() == 0 {
				rt.DSM().WriteF64(e.Thread(), addr, 42)
			}
			e.Barrier()
			if rt.ID() == 1 {
				t0 := rt.Node().Now()
				got = e.ReadF64(addr)
				elapsed = rt.Node().Now().Sub(t0)
			}
			e.Barrier()
		})
		if err != nil {
			panic(err)
		}
		ps := cl.Runtime(1).Endpoint().(*packet.Endpoint).Stats()
		fmt.Fprintf(w, "%-18s page read ok=%v  latency=%-10v retransmits=%d\n",
			sc.name, got == 42, elapsed, ps.Retransmits)
	}
	fmt.Fprintf(w, "paper: request retransmitted on timeout; replies regenerated, never buffered;\n")
	fmt.Fprintf(w, "       duplicate replies discarded by the requester\n")
}

// --- Figure 4 ---

func fig4(w io.Writer, o Options) {
	cfg := matmul.Config{}
	if o.Quick {
		cfg.N = 128
	}
	seq, _ := matmul.Sequential(cfg)
	n := cfg.N
	if n == 0 {
		n = 512
	}
	t := newTable(w, o, fmt.Sprintf("matrix multiplication, %dx%d", n, n), seq.Seconds(), "205")
	paperCG := map[int]string{1: "205", 2: "104", 4: "53.3", 8: "30.1"}
	paperDF := map[int]string{1: "206", 2: "107", 4: "64.8", 8: "39.7"}
	var served8 int64
	for _, p := range o.nodes() {
		c := cfg
		c.Nodes = p
		cg, _ := matmul.CoarseGrain(c)
		df, _, cl := runDF("matmul", p, nil, matmul.Setup, c)
		t.row(p, cg.Seconds(), df.Seconds(), paperCG[p], paperDF[p])
		if p == 8 {
			served8 = cl.Runtime(0).DSM().Stats().Served
		}
	}
	if served8 > 0 {
		fmt.Fprintf(w, "  master page requests serviced on 8 nodes: %d (paper: 4032)\n", served8)
	}
}

// --- Figure 5 ---

func jacobiTable(w io.Writer, o Options, title string, proto filaments.Protocol, singlePool bool, paperDF map[int]string) {
	cfg := jacobi.Config{}
	if o.Quick {
		cfg.N = 128
		cfg.Iters = 60
	}
	seq, _ := jacobi.Sequential(cfg)
	t := newTable(w, o, title, seq.Seconds(), "215")
	paperCG := map[int]string{1: "215", 2: "98.1", 4: "53.1", 8: "35.8"}
	for _, p := range o.nodes() {
		c := cfg
		c.Nodes = p
		cg, _ := jacobi.CoarseGrain(c)
		c.SinglePool = singlePool
		df, _, _ := runDF("jacobi", p, under(proto), jacobi.Setup, c)
		t.row(p, cg.Seconds(), df.Seconds(), paperCG[p], paperDF[p])
	}
}

func fig5(w io.Writer, o Options) {
	jacobiTable(w, o, "Jacobi iteration, implicit-invalidate, 3 pools", filaments.ImplicitInvalidate, false,
		map[int]string{1: "212", 2: "102", 4: "59.8", 8: "38.5"})
}

// --- Figure 6 ---

func fig6(w io.Writer, o Options) {
	cfg := quadrature.Config{}
	if o.Quick {
		cfg.Tol = 1e-4
	}
	seq, _ := quadrature.Sequential(cfg)
	t := newTable(w, o, "adaptive quadrature, interval of length 24", seq.Seconds(), "203")
	paperCG := map[int]string{1: "203", 2: "137", 4: "133", 8: "118"}
	paperDF := map[int]string{1: "210", 2: "119", 4: "59.0", 8: "35.7"}
	for _, p := range o.nodes() {
		c := cfg
		c.Nodes = p
		cg, _ := quadrature.CoarseGrain(c)
		df, _, _ := runDF("quadrature", p, nil, quadrature.Setup, c)
		t.row(p, cg.Seconds(), df.Seconds(), paperCG[p], paperDF[p])
	}
	// §4.3's second coarse-grain program: the centralized bag of tasks.
	fmt.Fprintf(w, "  bag-of-tasks CG variant (paper: better balance, much worse absolute time):\n")
	for _, p := range o.nodes() {
		if p == 1 {
			continue
		}
		c := cfg
		c.Nodes = p
		bag, _ := quadrature.BagOfTasks(c, 0)
		fmt.Fprintf(w, "    %d nodes: %.1f s (speedup %.2f)\n", p, bag.Seconds(), seq.Seconds()/bag.Seconds())
	}
}

// --- Figure 7 ---

func fig7(w io.Writer, o Options) {
	cfg := exprtree.Config{}
	if o.Quick {
		cfg.Height = 5
		cfg.N = 24
	}
	seq, _ := exprtree.Sequential(cfg)
	t := newTable(w, o, "binary expression trees, 70x70 matrices, height 7", seq.Seconds(), "92.1")
	paperCG := map[int]string{1: "90.7", 2: "47.9", 4: "25.4", 8: "14.1"}
	paperDF := map[int]string{1: "92.2", 2: "54.0", 4: "28.1", 8: "17.5"}
	for _, p := range o.nodes() {
		c := cfg
		c.Nodes = p
		cg, _ := exprtree.CoarseGrain(c)
		df, _, _ := runDF("exprtree", p, nil, exprtree.Setup, c)
		t.row(p, cg.Seconds(), df.Seconds(), paperCG[p], paperDF[p])
	}
	fmt.Fprintf(w, "  tail-end speedup cap for height 7: 3.85 on 4 nodes, 7.06 on 8 (paper)\n")
}

// --- Figure 8 ---

func fig8(w io.Writer, o Options) {
	fmt.Fprintf(w, "barrier synchronization, 1000 barriers\n")
	fmt.Fprintf(w, "  %-6s %16s %16s\n", "Nodes", "Time (ms)", "paper (ms)")
	paper := map[int]string{2: "3.20", 4: "5.29", 8: "8.45"}
	for _, p := range []int{2, 4, 8} {
		cl := filaments.New(filaments.Config{Nodes: p})
		rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			for i := 0; i < 1000; i++ {
				e.Barrier()
			}
		})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "  %-6d %16.2f %16s\n", p, rep.Elapsed.Milliseconds()/1000, paper[p])
	}
}

// --- Figure 9 ---

func fig9(w io.Writer, o Options) {
	fmt.Fprintf(w, "filaments overheads (virtual time)\n")
	fmt.Fprintf(w, "  %-28s %12s %14s %12s\n", "Operation", "Time (µs)", "ops/sec", "paper (µs)")

	line := func(name string, d sim.Duration, paper string) {
		fmt.Fprintf(w, "  %-28s %12.3f %14.0f %12s\n", name, d.Microseconds(), 1e6/d.Microseconds(), paper)
	}

	// Filament creation: build a large pool and take the per-Add cost.
	{
		const n = 100000
		cl := filaments.New(filaments.Config{Nodes: 1})
		var per sim.Duration
		cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			p := rt.NewPool("bench")
			t0 := rt.Node().Now()
			for i := 0; i < n; i++ {
				p.Add(e, func(e *filaments.Exec, a filaments.Args) {}, filaments.Args{int64(i)})
			}
			e.Flush()
			per = rt.Node().Now().Sub(t0) / n
		})
		line("Filaments creation", per, "2.10")
	}
	// Context switch between filaments, non-inlined (args break the strip
	// pattern) and inlined.
	for _, inlined := range []bool{false, true} {
		const n = 100000
		cl := filaments.New(filaments.Config{Nodes: 1})
		var per sim.Duration
		cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			p := rt.NewPool("bench")
			for i := 0; i < n; i++ {
				a := filaments.Args{int64(i)}
				if !inlined {
					a[2] = int64(i % 7) // break the lattice
				}
				p.Add(e, func(e *filaments.Exec, a filaments.Args) {}, a)
			}
			e.Flush()
			t0 := rt.Node().Now()
			rt.RunPools(e)
			per = rt.Node().Now().Sub(t0) / n
		})
		if inlined {
			line("Context switch: Fil. Inlined", per, "0.126")
		} else {
			line("Context switch: Filaments", per, "0.643")
		}
	}
	// Server-thread context switch: two threads ping-pong via the ready
	// queue.
	{
		const n = 20000
		cl := filaments.New(filaments.Config{Nodes: 1})
		var per sim.Duration
		cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			node := rt.Node()
			done := 0
			main := e.Thread()
			body := func(t kernel.Thread) {
				for i := 0; i < n; i++ {
					t.Yield()
				}
				done++
				if done == 2 {
					node.Ready(main, false)
				}
			}
			t0 := node.Now()
			node.Spawn("a", body)
			node.Spawn("b", body)
			main.Block()
			per = node.Now().Sub(t0) / (2 * n)
		})
		line("Context switch: Threads", per, "48.8")
	}
	// Page fault: remote 4 KB read on an otherwise idle pair of nodes,
	// owner known, page immediately available (the paper's conditions).
	{
		const n = 50
		cl := filaments.New(filaments.Config{Nodes: 2, Protocol: filaments.ImplicitInvalidate})
		addr := cl.AllocOwned(8, 0)
		var per sim.Duration
		cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			if rt.ID() == 0 {
				rt.DSM().WriteF64(e.Thread(), addr, 1)
				e.Barrier()
				e.Barrier()
				return
			}
			e.Barrier()
			var total sim.Duration
			for i := 0; i < n; i++ {
				t0 := rt.Node().Now()
				_ = rt.DSM().ReadF64(e.Thread(), addr)
				total += rt.Node().Now().Sub(t0)
				rt.DSM().AtBarrier() // drop the copy so the next read faults
			}
			per = total / n
			e.Barrier()
		})
		line("Page fault (4 KB)", per, "4120")
	}
}

// --- Figure 10 ---

func fig10(w io.Writer, o Options) {
	cfg := jacobi.Config{Nodes: 8}
	if o.Quick {
		cfg.N = 128
		cfg.Iters = 60
	}
	rep, _, _ := runDF("jacobi", cfg.Nodes, nil, jacobi.Setup, cfg)
	fmt.Fprintf(w, "Jacobi iteration, 8 nodes: per-node time breakdown (seconds)\n")
	fmt.Fprintf(w, "  total execution time: %.1f s (paper, profiled: 42.1 s)\n", rep.Seconds())
	fmt.Fprintf(w, "  %-10s %8s %14s %14s %14s %12s\n",
		"Node", "Work", "Filament Exec", "Data Transfer", "Sync Overhead", "Sync Delay")
	name := func(i int) string {
		switch i {
		case 0:
			return "master"
		case 7:
			return "tail"
		}
		return fmt.Sprintf("interior%d", i)
	}
	for i, nr := range rep.PerNode {
		a := nr.CPU
		fmt.Fprintf(w, "  %-10s %8.1f %14.2f %14.2f %14.2f %12.1f\n",
			name(i),
			a[threads.CatWork].Seconds(),
			a[threads.CatFilament].Seconds(),
			a[threads.CatData].Seconds(),
			a[threads.CatSync].Seconds(),
			a[threads.CatSyncDelay].Seconds())
	}
	fmt.Fprintf(w, "  paper:   master 22.3 / 1.57 / 7.75 / 0.99 / 6.62\n")
	fmt.Fprintf(w, "           interior 22.9-24.4 / 1.54-1.87 / 2.31-3.02 / 1.51-2.14 / 5.24-10.3\n")
	fmt.Fprintf(w, "           tail 22.6 / 1.73 / 1.53 / 1.12 / 14.7\n")
}

// --- Figures 11 and 12 ---

func fig11(w io.Writer, o Options) {
	jacobiTable(w, o, "Jacobi iteration, write-invalidate PCP (ablation of implicit-invalidate)",
		filaments.WriteInvalidate, false,
		map[int]string{1: "212", 2: "103", 4: "61.4", 8: "40.9"})
}

func fig12(w io.Writer, o Options) {
	jacobiTable(w, o, "Jacobi iteration, implicit-invalidate, single pool (no overlap)",
		filaments.ImplicitInvalidate, true,
		map[int]string{1: "212", 2: "104", 4: "65.5", 8: "48.5"})
}
