package filament_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"filaments"
	fl "filaments/internal/filament"
	"filaments/internal/sim"
)

func run(t *testing.T, cfg filaments.Config, setup func(c *filaments.Cluster), prog filaments.Program) (*filaments.Cluster, *filaments.Report) {
	t.Helper()
	c := filaments.New(cfg)
	if setup != nil {
		setup(c)
	}
	rep, err := c.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return c, rep
}

func TestRTCPoolRunsEveryFilamentOnce(t *testing.T) {
	const n = 100
	counts := make([]int, n)
	run(t, filaments.Config{Nodes: 1}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("rtc")
		for i := 0; i < n; i++ {
			p.Add(e, func(e *filaments.Exec, a filaments.Args) {
				counts[a[0]]++
				e.Compute(10 * sim.Microsecond)
			}, filaments.Args{int64(i)})
		}
		rt.RunPools(e)
	})
	for i, got := range counts {
		if got != 1 {
			t.Fatalf("filament %d ran %d times", i, got)
		}
	}
}

func TestStripRecognition2D(t *testing.T) {
	var visited [8][8]bool
	c, _ := run(t, filaments.Config{Nodes: 1}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("strip")
		fn := func(e *filaments.Exec, a filaments.Args) {
			visited[a[0]-2][a[1]-3] = true
		}
		for i := 2; i < 2+8; i++ {
			for j := 3; j < 3+8; j++ {
				p.Add(e, fn, filaments.Args{int64(i), int64(j), 7, 9})
			}
		}
		if !p.Inlined() {
			t.Error("row-major lattice not recognized as a strip")
		}
		rt.RunPools(e)
	})
	for i := range visited {
		for j := range visited[i] {
			if !visited[i][j] {
				t.Fatalf("lattice point (%d,%d) not visited", i, j)
			}
		}
	}
	st := c.Runtime(0).Stats()
	if st.InlinedRun != 64 {
		t.Fatalf("inlined executions = %d, want 64", st.InlinedRun)
	}
}

func TestStripRecognitionRejectsIrregular(t *testing.T) {
	run(t, filaments.Config{Nodes: 1}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("irregular")
		fn := func(e *filaments.Exec, a filaments.Args) {}
		p.Add(e, fn, filaments.Args{0, 0})
		p.Add(e, fn, filaments.Args{0, 1})
		p.Add(e, fn, filaments.Args{5, 9}) // breaks the lattice
		if p.Inlined() {
			t.Error("irregular args recognized as strip")
		}
		rt.RunPools(e)
	})
}

func TestStripRecognitionRejectsMixedFuncs(t *testing.T) {
	run(t, filaments.Config{Nodes: 1}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("mixed")
		sum := 0
		f1 := func(e *filaments.Exec, a filaments.Args) { sum++ }
		f2 := func(e *filaments.Exec, a filaments.Args) { sum += 100 }
		p.Add(e, f1, filaments.Args{0, 0})
		p.Add(e, f2, filaments.Args{0, 1})
		if p.Inlined() {
			t.Error("different functions recognized as one strip")
		}
		rt.RunPools(e)
		if sum != 101 {
			t.Errorf("sum = %d", sum)
		}
	})
}

// A pool whose filaments fault should finish after a non-faulting pool, and
// the next sweep must start with the faulting pool (fault frontloading).
func TestFaultFrontloading(t *testing.T) {
	var addr filaments.Addr
	c := filaments.New(filaments.Config{Nodes: 2, Protocol: filaments.ImplicitInvalidate})
	addr = c.AllocOwned(8, 1) // page owned by node 1: node 0 faults on it
	var order []string
	var nextOrder []string
	_, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 1 {
			// Node 1 just owns the page and participates in the barrier.
			e.Barrier()
			return
		}
		// Registration order puts "local" first; without frontloading it
		// would also run first next sweep.
		local := rt.NewPool("local")
		faulting := rt.NewPool("faulting")
		faulting.Add(e, func(e *filaments.Exec, a filaments.Args) {
			_ = e.ReadF64(addr) // remote: faults
			order = append(order, "faulting")
		}, filaments.Args{})
		local.Add(e, func(e *filaments.Exec, a filaments.Args) {
			e.Compute(100 * sim.Microsecond)
			order = append(order, "local")
		}, filaments.Args{})
		rt.RunPools(e)
		nextOrder = rt.PoolOrder()
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The faulting pool finished last (it was suspended during the fetch
	// while the local pool ran — that is the overlap)...
	if len(order) != 2 || order[0] != "local" || order[1] != "faulting" {
		t.Fatalf("sweep order = %v: faulting pool should finish last", order)
	}
	// ...so the next sweep is scheduled to *start* with it: fault
	// frontloading via the pool stack.
	if len(nextOrder) < 1 || nextOrder[0] != "faulting" {
		t.Fatalf("next sweep order = %v: faulting pool should start first", nextOrder)
	}
}

// Communication/computation overlap: with two pools, a page fetch in one
// overlaps the other pool's computation, so the sweep takes about
// max(fetch, work), not their sum.
func TestOverlapReducesElapsed(t *testing.T) {
	elapsed := func(pools int) sim.Duration {
		c := filaments.New(filaments.Config{Nodes: 2, Protocol: filaments.ImplicitInvalidate})
		addr := c.AllocOwned(8, 1)
		rep, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			if rt.ID() == 1 {
				e.Barrier()
				return
			}
			remote := rt.NewPool("remote")
			remote.Add(e, func(e *filaments.Exec, a filaments.Args) {
				_ = e.ReadF64(addr)
			}, filaments.Args{})
			work := remote
			if pools == 2 {
				work = rt.NewPool("work")
			}
			for i := 0; i < 40; i++ {
				work.Add(e, func(e *filaments.Exec, a filaments.Args) {
					e.Compute(100 * sim.Microsecond)
				}, filaments.Args{int64(i), 0, 1, 1})
			}
			rt.RunPools(e)
			e.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Elapsed
	}
	one := elapsed(1)
	two := elapsed(2)
	if two >= one {
		t.Fatalf("two pools (%v) not faster than one (%v): no overlap", two, one)
	}
}

const (
	fnLeafSum = iota
	fnImbalanced
)

// leafSum recursively sums the leaves of a binary tree of the given depth;
// each leaf is worth its index.
func leafSum(e *fl.Exec, a fl.Args) float64 {
	depth, base := a[0], a[1]
	e.Compute(50 * sim.Microsecond)
	if depth == 0 {
		return float64(base)
	}
	rt := e.Runtime()
	j := rt.NewJoin()
	width := int64(1) << (depth - 1)
	rt.Fork(e, j, fnLeafSum, fl.Args{depth - 1, base})
	rt.Fork(e, j, fnLeafSum, fl.Args{depth - 1, base + width})
	return j.Wait(e)
}

func TestForkJoinCorrectAllClusterSizes(t *testing.T) {
	const depth = 8 // 256 leaves
	leaves := int64(1) << depth
	want := float64(leaves * (leaves - 1) / 2)
	for _, nodes := range []int{1, 2, 3, 4, 8} {
		results := make([]float64, nodes)
		run(t, filaments.Config{Nodes: nodes, Stealing: true}, nil,
			func(rt *filaments.Runtime, e *filaments.Exec) {
				rt.RegisterFJ(fnLeafSum, leafSum)
				results[rt.ID()] = rt.RunForkJoin(e, fnLeafSum, filaments.Args{depth, 0})
			})
		for id, got := range results {
			if got != want {
				t.Fatalf("nodes=%d node %d: got %v, want %v", nodes, id, got, want)
			}
		}
	}
}

// Figure 2: during initial distribution the number of nodes with work
// doubles each step, following the binomial tree.
func TestTreeDistributionDoubling(t *testing.T) {
	const nodes = 8
	var firstWork [nodes]sim.Time
	run(t, filaments.Config{Nodes: nodes}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		rt.RegisterFJ(fnLeafSum, func(e *fl.Exec, a fl.Args) float64 {
			id := e.Runtime().ID()
			if firstWork[id] == 0 {
				firstWork[id] = e.Runtime().Node().Now()
			}
			return leafSum(e, a)
		})
		rt.RunForkJoin(e, fnLeafSum, filaments.Args{8, 0})
	})
	// Every node must have received work.
	for id, ts := range firstWork {
		if id != 0 && ts == 0 {
			t.Fatalf("node %d never got work", id)
		}
	}
	// Binomial order: node 1 before node 3 and 5; node 2 before node 6.
	if !(firstWork[1] < firstWork[3] && firstWork[1] <= firstWork[5]) {
		t.Errorf("distribution order wrong: %v", firstWork)
	}
	if firstWork[2] > firstWork[6] {
		t.Errorf("node 2 should get work before its child 6: %v", firstWork)
	}
}

func TestPruningDominatesDeepRecursion(t *testing.T) {
	c, _ := run(t, filaments.Config{Nodes: 2}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		rt.RegisterFJ(fnLeafSum, leafSum)
		rt.RunForkJoin(e, fnLeafSum, filaments.Args{10, 0})
	})
	var pruned, sent, kept int64
	for i := 0; i < 2; i++ {
		st := c.Runtime(i).Stats()
		pruned += st.ForksPruned
		sent += st.ForksSent
		kept += st.ForksKept
	}
	total := pruned + sent + kept
	if total == 0 {
		t.Fatal("no forks recorded")
	}
	if pruned < total*9/10 {
		t.Fatalf("pruned %d of %d forks; pruning should dominate", pruned, total)
	}
	if sent == 0 {
		t.Fatal("initial distribution sent nothing")
	}
}

// imbalanced puts all real work in the leftmost leaf chain, so without
// stealing most nodes idle.
func imbalanced(e *fl.Exec, a fl.Args) float64 {
	depth := a[0]
	heavy := a[1] != 0
	if depth == 0 {
		if heavy {
			// The heavy leaf spawns a burst of uneven subtasks.
			rt := e.Runtime()
			j := rt.NewJoin()
			for i := 0; i < 64; i++ {
				rt.Fork(e, j, fnImbalanced, fl.Args{-1, int64(i)})
			}
			return j.Wait(e)
		}
		e.Compute(20 * sim.Microsecond)
		return 1
	}
	if depth == -1 {
		e.Compute(sim.Duration(1+a[1]%7) * sim.Millisecond)
		return 1
	}
	rt := e.Runtime()
	j := rt.NewJoin()
	rt.Fork(e, j, fnImbalanced, fl.Args{depth - 1, a[1]})
	rt.Fork(e, j, fnImbalanced, fl.Args{depth - 1, 0})
	return j.Wait(e)
}

func TestStealingBalancesLoad(t *testing.T) {
	elapsed := map[bool]sim.Duration{}
	for _, stealing := range []bool{false, true} {
		c, rep := run(t, filaments.Config{Nodes: 4, Stealing: stealing}, nil,
			func(rt *filaments.Runtime, e *filaments.Exec) {
				rt.RegisterFJ(fnLeafSum, leafSum)
				rt.RegisterFJ(fnImbalanced, imbalanced)
				rt.RunForkJoin(e, fnImbalanced, filaments.Args{4, 1})
			})
		elapsed[stealing] = rep.Elapsed
		var granted int64
		for i := 0; i < 4; i++ {
			granted += c.Runtime(i).Stats().StealsGranted
		}
		if stealing && granted == 0 {
			t.Fatal("stealing enabled but nothing was stolen")
		}
		if !stealing && granted != 0 {
			t.Fatal("stealing disabled but steals happened")
		}
	}
	if elapsed[true] >= elapsed[false] {
		t.Fatalf("stealing (%v) did not beat no-stealing (%v) on an imbalanced load",
			elapsed[true], elapsed[false])
	}
}

func TestForkJoinResultBroadcastConsistent(t *testing.T) {
	var results [4]float64
	run(t, filaments.Config{Nodes: 4, Stealing: true}, nil,
		func(rt *filaments.Runtime, e *filaments.Exec) {
			rt.RegisterFJ(fnLeafSum, leafSum)
			results[rt.ID()] = rt.RunForkJoin(e, fnLeafSum, filaments.Args{6, 0})
		})
	for i := 1; i < 4; i++ {
		if math.Abs(results[i]-results[0]) > 1e-9 {
			t.Fatalf("results diverge: %v", results)
		}
	}
}

func TestFilamentCreationAccounted(t *testing.T) {
	c, _ := run(t, filaments.Config{Nodes: 1}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("p")
		for i := 0; i < 1000; i++ {
			p.Add(e, func(e *filaments.Exec, a filaments.Args) {}, filaments.Args{int64(i)})
		}
		rt.RunPools(e)
	})
	st := c.Runtime(0).Stats()
	if st.FilamentsCreated != 1000 || st.FilamentsRun != 1000 {
		t.Fatalf("created %d run %d", st.FilamentsCreated, st.FilamentsRun)
	}
}

// Property: any contiguous row-major lattice is recognized as a strip, and
// the inlined iteration visits exactly the declared points.
func TestStripRecognitionProperty(t *testing.T) {
	f := func(i0, j0 int8, w, h uint8) bool {
		width := 1 + int(w)%9
		height := 1 + int(h)%9
		visited := make(map[[2]int64]int)
		ok := true
		_, err := filaments.New(filaments.Config{Nodes: 1}).Run(
			func(rt *filaments.Runtime, e *filaments.Exec) {
				p := rt.NewPool("prop")
				fn := func(e *filaments.Exec, a filaments.Args) {
					visited[[2]int64{a[0], a[1]}]++
				}
				for i := 0; i < height; i++ {
					for j := 0; j < width; j++ {
						p.Add(e, fn, filaments.Args{int64(i0) + int64(i), int64(j0) + int64(j)})
					}
				}
				if width*height >= 2 && !p.Inlined() {
					ok = false
				}
				rt.RunPools(e)
			})
		if err != nil || !ok {
			return false
		}
		if len(visited) != width*height {
			return false
		}
		for _, c := range visited {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: shuffling a lattice's insertion order breaks recognition (the
// pattern matcher only accepts row-major streams) but execution still
// visits every filament exactly once.
func TestShuffledLatticeStillRunsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type pt struct{ i, j int64 }
		var pts []pt
		for i := int64(0); i < 6; i++ {
			for j := int64(0); j < 6; j++ {
				pts = append(pts, pt{i, j})
			}
		}
		rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		visited := map[pt]int{}
		_, err := filaments.New(filaments.Config{Nodes: 1}).Run(
			func(rt *filaments.Runtime, e *filaments.Exec) {
				p := rt.NewPool("shuffled")
				fn := func(e *filaments.Exec, a filaments.Args) {
					visited[pt{a[0], a[1]}]++
				}
				for _, q := range pts {
					p.Add(e, fn, filaments.Args{q.i, q.j})
				}
				rt.RunPools(e)
			})
		if err != nil {
			return false
		}
		if len(visited) != len(pts) {
			return false
		}
		for _, c := range visited {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Fork/join must survive network loss end to end.
func TestForkJoinUnderLoss(t *testing.T) {
	const depth = 6
	leaves := int64(1) << depth
	want := float64(leaves * (leaves - 1) / 2)
	c := filaments.New(filaments.Config{Nodes: 4, Stealing: true, LossRate: 0.1, Seed: 3})
	var results [4]float64
	_, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		rt.RegisterFJ(fnLeafSum, leafSum)
		results[rt.ID()] = rt.RunForkJoin(e, fnLeafSum, filaments.Args{depth, 0})
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, got := range results {
		if got != want {
			t.Fatalf("node %d: got %v, want %v", id, got, want)
		}
	}
}

// ResetPools clears filaments but keeps the pool objects usable.
func TestResetPools(t *testing.T) {
	runs := 0
	_, err := filaments.New(filaments.Config{Nodes: 1}).Run(
		func(rt *filaments.Runtime, e *filaments.Exec) {
			p := rt.NewPool("r")
			fn := func(e *filaments.Exec, a filaments.Args) { runs++ }
			p.Add(e, fn, filaments.Args{0})
			rt.RunPools(e)
			rt.ResetPools()
			if p.Size() != 0 {
				t.Error("pool not cleared")
			}
			p.Add(e, fn, filaments.Args{0})
			p.Add(e, fn, filaments.Args{1})
			rt.RunPools(e)
		})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Fatalf("runs = %d, want 3", runs)
	}
}

// Property: a recognized strip calls its function with exactly the
// descriptor sequence it was built from, in order — for single-row,
// width-1, rectangular and ragged-last-row pools, and across flush
// boundaries (every filament computes enough that the dispatch loop
// flushes every few of them).
func TestStripDispatchMatchesDescriptors(t *testing.T) {
	f := func(i0, j0 int16, w, h, last uint8, c2, c5 int64) bool {
		width, height := 1+int(w)%11, 1+int(h)%11
		ragged := 1 + int(last)%width // filaments in the last row
		var want, got []filaments.Args
		inlined := false
		_, err := filaments.New(filaments.Config{Nodes: 1}).Run(
			func(rt *filaments.Runtime, e *filaments.Exec) {
				p := rt.NewPool("strip")
				fn := func(e *filaments.Exec, a filaments.Args) {
					got = append(got, a)
					e.Compute(300 * sim.Microsecond)
				}
				for i := 0; i < height; i++ {
					cols := width
					if i == height-1 {
						cols = ragged
					}
					for j := 0; j < cols; j++ {
						a := filaments.Args{int64(i0) + int64(i), int64(j0) + int64(j), c2, 0, 0, c5}
						want = append(want, a)
						p.Add(e, fn, a)
					}
				}
				inlined = p.Inlined()
				rt.RunPools(e)
			})
		if err != nil || inlined != (len(want) >= 2) || len(got) != len(want) {
			return false
		}
		for k := range want {
			if got[k] != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fil.run, fil.inlined and fil.created are published in batches at flush
// points; after RunPools the totals must be exact all the same.
func TestFilamentCountersExact(t *testing.T) {
	const strip, plain, sweeps = 9000, 2500, 3
	c, _ := run(t, filaments.Config{Nodes: 1}, nil, func(rt *filaments.Runtime, e *filaments.Exec) {
		fn := func(e *filaments.Exec, a filaments.Args) { e.Compute(sim.Microsecond) }
		ps := rt.NewPool("strip")
		for k := 0; k < strip; k++ {
			ps.Add(e, fn, filaments.Args{int64(k / 100), int64(k % 100)})
		}
		pp := rt.NewPool("plain")
		for k := 0; k < plain; k++ {
			pp.Add(e, fn, filaments.Args{int64(k % 7), int64(k)})
		}
		if !ps.Inlined() || pp.Inlined() {
			t.Errorf("inlined: strip %v, plain %v", ps.Inlined(), pp.Inlined())
		}
		for s := 1; s <= sweeps; s++ {
			rt.RunPools(e)
			if st := rt.Stats(); st.FilamentsRun != int64(s*(strip+plain)) || st.InlinedRun != int64(s*strip) {
				t.Errorf("after sweep %d: run %d, inlined %d", s, st.FilamentsRun, st.InlinedRun)
			}
		}
	})
	if st := c.Runtime(0).Stats(); st.FilamentsCreated != strip+plain {
		t.Errorf("created %d, want %d", st.FilamentsCreated, strip+plain)
	}
}
