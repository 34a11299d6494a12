package filaments_test

import (
	"fmt"
	"sync"
	"testing"

	"filaments"
	"filaments/internal/apps"
)

// These tests exercise the cluster's run-many lifecycle directly: one
// set of endpoints, many complete kernel stacks over them, sequentially
// (lane recycling) and concurrently (lane multiplexing). The service
// layer (internal/cluster/daemon) is built on exactly this contract.

func startCluster(t *testing.T, nodes int) *filaments.UDPCluster {
	t.Helper()
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// runJacobi starts a run, executes jacobi on it, and verifies the grid
// bitwise against the reference. Errors are returned, not fataled, so
// it is callable from concurrent goroutines.
func runJacobi(cl *filaments.UDPCluster, n, iters int) (*filaments.UDPRun, error) {
	app, _ := apps.ByName("jacobi")
	run, err := cl.StartRun(filaments.UDPRunConfig{Protocol: app.Protocol})
	if err != nil {
		return nil, err
	}
	p := apps.Params{N: n, Iters: iters}
	prog, res := app.Setup(run, p)
	rep, err := run.Run(prog)
	if err != nil {
		return nil, err
	}
	if bad := app.Mismatches(res.Collect(run.PeekF64), app.Reference(p)); bad != 0 {
		return nil, fmt.Errorf("%d grid words differ from the reference (bitwise)", bad)
	}
	if out := run.Outstanding(); out != 0 {
		return nil, fmt.Errorf("%d requests outstanding after run", out)
	}
	if len(rep.Metrics) == 0 {
		return nil, fmt.Errorf("run has no metrics")
	}
	return run, nil
}

// TestUDPClusterSequentialRuns runs two programs back to back over the
// same endpoints. The second run must reuse the first's recycled lane —
// a long-lived daemon cycles through thousands of jobs on a bounded
// lane space — and still produce bitwise-correct results, proving the
// first run's service registrations and reply-cache state don't leak
// into its successor.
func TestUDPClusterSequentialRuns(t *testing.T) {
	cl := startCluster(t, 2)
	r1, err := runJacobi(cl, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runJacobi(cl, 24, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Lane() != r2.Lane() {
		t.Fatalf("sequential runs on lanes %d then %d: finished lane was not recycled", r1.Lane(), r2.Lane())
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUDPClusterConcurrentRuns executes two programs at the same time
// over the same endpoints, on distinct service-id lanes. Each has its
// own address space and kernel stack; the shared sockets multiplex both
// jobs' pages, barriers, and events without crosstalk.
func TestUDPClusterConcurrentRuns(t *testing.T) {
	cl := startCluster(t, 2)
	runs := make([]*filaments.UDPRun, 2)
	errs := make([]error, 2)
	sizes := []struct{ n, iters int }{{32, 6}, {48, 4}}
	var wg sync.WaitGroup
	for k := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[k], errs[k] = runJacobi(cl, sizes[k].n, sizes[k].iters)
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
	}
	if runs[0].Lane() == runs[1].Lane() {
		t.Fatalf("concurrent runs shared lane %d", runs[0].Lane())
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}
