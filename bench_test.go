// Benchmarks regenerating the paper's tables and figures, one per
// experiment, at reduced problem sizes (wall-clock friendly). Each reports
// the *virtual* time of the simulated 1994 cluster as "vsec" — the number
// the paper's tables hold — alongside Go wall time. Full paper-scale
// tables come from cmd/dfbench.
package filaments_test

import (
	"fmt"
	"io"
	"testing"

	"filaments"
	"filaments/internal/apps"
	"filaments/internal/apps/exprtree"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/matmul"
	"filaments/internal/apps/quadrature"
	"filaments/internal/bench"
)

// report attaches the simulated time to the benchmark result.
func report(b *testing.B, rep *filaments.Report) {
	b.ReportMetric(rep.Seconds(), "vsec")
}

func nodesSweep(b *testing.B, run func(b *testing.B, nodes int)) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", p), func(b *testing.B) {
			run(b, p)
		})
	}
}

// --- Figure 4: matrix multiplication ---

func BenchmarkFig4MatmulCG(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = matmul.CoarseGrain(matmul.Config{N: 128, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig4MatmulDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = simDF(b, table(b, "matmul"), p, "", nil, apps.Params{N: 128})
		}
		report(b, rep)
	})
}

// --- Figure 5: Jacobi iteration ---

func BenchmarkFig5JacobiCG(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = jacobi.CoarseGrain(jacobi.Config{N: 128, Iters: 60, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig5JacobiDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = simDF(b, table(b, "jacobi"), p, "", nil, apps.Params{N: 128, Iters: 60})
		}
		report(b, rep)
	})
}

// --- Figure 6: adaptive quadrature ---

func BenchmarkFig6QuadratureCG(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = quadrature.CoarseGrain(quadrature.Config{Tol: 1e-4, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig6QuadratureDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = simDF(b, table(b, "quadrature"), p, "", nil, apps.Params{Tol: 1e-4})
		}
		report(b, rep)
	})
}

func BenchmarkFig6QuadratureBag(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		if p == 1 {
			b.Skip("bag needs a master and slaves")
		}
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = quadrature.BagOfTasks(quadrature.Config{Tol: 1e-4, Nodes: p}, 0)
		}
		report(b, rep)
	})
}

// --- Figure 7: binary expression trees ---

func BenchmarkFig7ExprTreeCG(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _ = exprtree.CoarseGrain(exprtree.Config{Height: 5, N: 24, Nodes: p})
		}
		report(b, rep)
	})
}

func BenchmarkFig7ExprTreeDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = simDF(b, table(b, "exprtree"), p, "", nil, apps.Params{Height: 5, N: 24})
		}
		report(b, rep)
	})
}

// --- Figure 8: barrier synchronization ---

func BenchmarkFig8Barrier(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", p), func(b *testing.B) {
			var perBarrier float64
			for i := 0; i < b.N; i++ {
				cl := filaments.New(filaments.Config{Nodes: p})
				rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
					for k := 0; k < 100; k++ {
						e.Barrier()
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				perBarrier = rep.Elapsed.Milliseconds() / 100
			}
			b.ReportMetric(perBarrier, "vms/barrier")
		})
	}
}

// --- Figure 9: filament overheads (real Go wall clock per operation) ---

func BenchmarkFig9FilamentCreate(b *testing.B) {
	cl := filaments.New(filaments.Config{Nodes: 1})
	_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Add(e, func(e *filaments.Exec, a filaments.Args) {}, filaments.Args{int64(i)})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig9FilamentRunInlined(b *testing.B) {
	cl := filaments.New(filaments.Config{Nodes: 1})
	_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		p := rt.NewPool("bench")
		fn := func(e *filaments.Exec, a filaments.Args) {}
		// Process b.N filaments in bounded chunks so auto-scaled b.N does
		// not build one enormous pool.
		const chunk = 65536
		b.ResetTimer()
		for done := 0; done < b.N; done += chunk {
			n := b.N - done
			if n > chunk {
				n = chunk
			}
			b.StopTimer()
			rt.ResetPools()
			for i := 0; i < n; i++ {
				p.Add(e, fn, filaments.Args{int64(i)})
			}
			b.StartTimer()
			rt.RunPools(e)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig9PageFault(b *testing.B) {
	// Virtual cost of a remote 4 KB fault, measured once; b.N loops the
	// measurement to satisfy the benchmark contract.
	var vus float64
	for i := 0; i < b.N; i++ {
		cl := filaments.New(filaments.Config{Nodes: 2, Protocol: filaments.ImplicitInvalidate})
		addr := cl.AllocOwned(8, 0)
		_, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			if rt.ID() == 0 {
				rt.DSM().WriteF64(e.Thread(), addr, 1)
				e.Barrier()
				e.Barrier()
				return
			}
			e.Barrier()
			t0 := rt.Node().Now()
			_ = rt.DSM().ReadF64(e.Thread(), addr)
			vus = rt.Node().Now().Sub(t0).Microseconds()
			e.Barrier()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vus, "vµs/fault")
}

// --- Ladder rungs on the real-time binding: what one filament and one
// resident shared access cost per operation, and that neither allocates
// (CI fails the run if any reports > 0 allocs/op). ---

// rtBench runs body as the single node program of a one-node UDP cluster.
func rtBench(b *testing.B, alloc int64, body func(rt *filaments.Runtime, e *filaments.Exec, base filaments.Addr)) {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: 1, Protocol: filaments.ImplicitInvalidate})
	if err != nil {
		b.Fatal(err)
	}
	var base filaments.Addr
	if alloc > 0 {
		base = cl.Alloc(alloc)
	}
	b.ReportAllocs()
	if _, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) { body(rt, e, base) }); err != nil {
		b.Fatal(err)
	}
}

// benchPoolRun sweeps b.N empty filaments in pools of up to 128 rows of 128
// (the geometry of the benchmark's filament probe); reversing each row
// defeats strip recognition.
func benchPoolRun(b *testing.B, strip bool) {
	rtBench(b, 0, func(rt *filaments.Runtime, e *filaments.Exec, _ filaments.Addr) {
		const cols, chunk = 128, 128 * 128
		p := rt.NewPool("bench")
		fn := func(*filaments.Exec, filaments.Args) {}
		b.ResetTimer()
		for done := 0; done < b.N; done += chunk {
			n := min(b.N-done, chunk)
			b.StopTimer()
			rt.ResetPools()
			for k := 0; k < n; k++ {
				col := k % cols
				if !strip {
					col = cols - 1 - col
				}
				p.Add(e, fn, filaments.Args{int64(k / cols), int64(col)})
			}
			if n >= 2 && p.Inlined() != strip {
				b.Fatalf("pool inlined=%v, want %v", p.Inlined(), strip)
			}
			b.StartTimer()
			rt.RunPools(e)
		}
	})
}

func BenchmarkPoolRunInlined(b *testing.B) { benchPoolRun(b, true) }
func BenchmarkPoolRunPlain(b *testing.B)   { benchPoolRun(b, false) }

var benchSink float64

func BenchmarkExecReadF64Hit(b *testing.B) {
	rtBench(b, filaments.PageSize, func(_ *filaments.Runtime, e *filaments.Exec, base filaments.Addr) {
		e.WriteF64(base, 1)
		var sum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum += e.ReadF64(base + filaments.Addr(i&511)*8)
		}
		benchSink = sum
	})
}

func BenchmarkExecWriteF64Hit(b *testing.B) {
	rtBench(b, filaments.PageSize, func(_ *filaments.Runtime, e *filaments.Exec, base filaments.Addr) {
		e.WriteF64(base, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.WriteF64(base+filaments.Addr(i&511)*8, 1)
		}
	})
}

// --- Figures 10-12 and the ablations, via the bench registry ---

func BenchmarkFig10JacobiBreakdown(b *testing.B) {
	var rep *filaments.Report
	for i := 0; i < b.N; i++ {
		rep, _, _ = simDF(b, table(b, "jacobi"), 8, "", nil, apps.Params{N: 128, Iters: 60})
	}
	report(b, rep)
}

func BenchmarkFig11JacobiWriteInvalidate(b *testing.B) {
	var rep *filaments.Report
	for i := 0; i < b.N; i++ {
		rep, _, _ = simDF(b, table(b, "jacobi"), 4, "wi", nil, apps.Params{N: 128, Iters: 60})
	}
	report(b, rep)
}

func BenchmarkFig12JacobiSinglePool(b *testing.B) {
	var rep *filaments.Report
	for i := 0; i < b.N; i++ {
		cl := filaments.New(filaments.Config{Nodes: 4, Protocol: filaments.ImplicitInvalidate})
		prog, _ := jacobi.Setup(cl, jacobi.Config{N: 128, Iters: 60, SinglePool: true})
		var err error
		if rep, err = cl.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
	report(b, rep)
}

// BenchmarkExperiments runs every registered dfbench experiment at quick
// scale, making `go test -bench` regenerate all tables end to end.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Run(io.Discard, bench.Options{Quick: true})
			}
		})
	}
}

// --- Extensions: merge sort and recursive FFT (paper §2.3) ---

func BenchmarkExtMergesortDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = simDF(b, table(b, "mergesort"), p, "", nil, apps.Params{N: 1 << 13, Leaf: 512})
		}
		report(b, rep)
	})
}

func BenchmarkExtFFTDF(b *testing.B) {
	nodesSweep(b, func(b *testing.B, p int) {
		var rep *filaments.Report
		for i := 0; i < b.N; i++ {
			rep, _, _ = simDF(b, table(b, "fft"), p, "", nil, apps.Params{N: 1 << 12, Leaf: 256})
		}
		report(b, rep)
	})
}
