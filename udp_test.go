package filaments_test

import (
	"sync"
	"testing"

	"filaments"
	"filaments/internal/apps"
)

// TestUDPJacobiMatchesReference runs the DF Jacobi program on the
// real-time binding — four nodes, each a set of goroutines with its own
// UDP endpoint on loopback — and requires the result to match the plain
// sequential reference exactly: both compute 0.25*(up+down+left+right)
// over identical inputs in identical order, so every float64 is
// bitwise-equal.
func TestUDPJacobiMatchesReference(t *testing.T) {
	app, p := table(t, "jacobi"), apps.Params{N: 64, Iters: 8}
	rep, grid, _ := udpDF(t, app, 4, "", nil, p)
	if bad := app.Mismatches(grid, app.Reference(p)); bad != 0 {
		t.Fatalf("%d grid words differ from the reference (bitwise)", bad)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("report has no elapsed time")
	}
	var faults int64
	for _, nr := range rep.PerNode {
		faults += nr.DSM.ReadFaults + nr.DSM.WriteFaults
	}
	if faults == 0 {
		t.Fatal("no DSM faults: the grid never moved between nodes")
	}
}

// TestUDPQuadratureMatchesReference runs the fork/join quadrature program
// over the real-time binding with work stealing on. Steal races make the
// summation order nondeterministic, so the area is compared to the
// sequential reference within a rounding tolerance rather than exactly.
func TestUDPQuadratureMatchesReference(t *testing.T) {
	app, p := table(t, "quadrature"), apps.Params{N: 8} // depth capped at 8
	rep, got, _ := udpDF(t, app, 4, "", nil, p)
	if want := app.Reference(p); app.Mismatches(got, want) != 0 {
		t.Fatalf("area = %v, want %v", got, want)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("report has no elapsed time")
	}
}

// redirectProgram exercises the DSM stale-owner redirect path: node 1
// takes ownership of a page from node 0, then node 2 (whose page table
// still names node 0) faults — node 0 answers with a redirect and node 2
// chases it to node 1. The returned program runs identically on both
// bindings; got receives node 2's read.
func redirectProgram(a filaments.Addr, got *float64) filaments.Program {
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 1 {
			e.WriteF64(a, 42) // migrate ownership 0 -> 1
		}
		e.Barrier()
		if rt.ID() == 2 {
			*got = e.ReadF64(a)
		}
		e.Barrier()
	}
}

// TestRedirectChaseSim drives redirectProgram through the simulation
// binding and checks the redirect was taken.
func TestRedirectChaseSim(t *testing.T) {
	cl := filaments.New(filaments.Config{Nodes: 3, Protocol: filaments.Migratory})
	a := cl.AllocOwned(8, 0)
	var got float64
	if _, err := cl.Run(redirectProgram(a, &got)); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("node 2 read %v, want 42", got)
	}
	if cl.Runtime(2).DSM().Stats().Redirected == 0 {
		t.Fatal("node 2 never chased a redirect")
	}
}

// TestRedirectChaseUDP drives the identical program through the real-time
// binding: the redirect crosses real UDP sockets.
func TestRedirectChaseUDP(t *testing.T) {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: 3, Protocol: filaments.Migratory})
	if err != nil {
		t.Fatal(err)
	}
	a := cl.AllocOwned(8, 0)
	var got float64
	if _, err := cl.Run(redirectProgram(a, &got)); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("node 2 read %v, want 42", got)
	}
	if cl.DSM(2).Stats().Redirected == 0 {
		t.Fatal("node 2 never chased a redirect")
	}
}

// TestUDPClusterBarrierAndDSM is a minimal cross-binding sanity check:
// writes on one node become visible on another after a barrier.
func TestUDPClusterBarrierAndDSM(t *testing.T) {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := cl.AllocOwned(8, 0)
	var got float64
	_, err = cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 0 {
			e.WriteF64(a, 42)
		}
		e.Barrier()
		if rt.ID() == 1 {
			got = e.ReadF64(a)
		}
		e.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("node 1 read %v, want 42", got)
	}
}

// TestUDPClusterMetricsDuringFirstUse is for the race detector: Metrics is
// documented safe from any goroutine at any time, including while another
// goroutine makes the single-program form's first calls. The default run
// those calls reach used to be built lazily, its pointer written under a
// sync.Once that Metrics read around.
func TestUDPClusterMetricsDuringFirstUse(t *testing.T) {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cl.Metrics()
			}
		}
	}()
	a := cl.AllocOwned(8, 0)
	_, err = cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 1 {
			e.WriteF64(a, 1)
		}
		e.Barrier()
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Metrics()) == 0 {
		t.Fatal("no metrics after the run")
	}
}
