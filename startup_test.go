package filaments_test

import (
	"net"
	"testing"
	"time"

	"filaments"
)

// Two start-up orderings nothing in a program controls: a fork shipped to
// a node that has not registered the function yet, and a page request
// served by a node whose main thread has not run yet.

// lateRegisterProgram is a two-leaf fork/join with no leading barrier.
// Node 0 registers and runs at once, so its first fork is shipped
// immediately; every other node calls stall before it registers.
func lateRegisterProgram(stall func(e *filaments.Exec), got *float64) filaments.Program {
	const fnRoot, fnLeaf = 0, 1
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() != 0 {
			stall(e)
		}
		rt.RegisterFJ(fnRoot, func(e *filaments.Exec, _ filaments.Args) float64 {
			j := rt.NewJoin()
			rt.Fork(e, j, fnLeaf, filaments.Args{3})
			rt.Fork(e, j, fnLeaf, filaments.Args{4})
			return j.Wait(e)
		})
		rt.RegisterFJ(fnLeaf, func(_ *filaments.Exec, a filaments.Args) float64 { return float64(a[0]) })
		v := rt.RunForkJoin(e, fnRoot, filaments.Args{})
		if rt.ID() == 0 {
			*got = v
		}
	}
}

func TestForkBeatsRegisterFJSim(t *testing.T) {
	cl := filaments.New(filaments.Config{Nodes: 2})
	var got float64
	rep, err := cl.Run(lateRegisterProgram(func(e *filaments.Exec) {
		e.Compute(20 * filaments.Millisecond) // the fork arrives within the first
		e.Flush()
	}, &got))
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("fork/join result = %v, want 7", got)
	}
	if rep.PerNode[1].Packet.Dropped == 0 {
		t.Fatal("node 1 never dropped a fork: the fork did not arrive before RegisterFJ")
	}
	if rep.PerNode[1].Runtime.TasksExecuted != 1 {
		t.Fatalf("node 1 executed %d tasks, want the one shipped fork", rep.PerNode[1].Runtime.TasksExecuted)
	}
}

func TestForkBeatsRegisterFJUDP(t *testing.T) {
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	rep, err := cl.Run(lateRegisterProgram(func(e *filaments.Exec) {
		// Register only once the fork has arrived and been dropped; every
		// Flush lets the handler in.
		for cl.Endpoint(1).Stats().Dropped == 0 {
			e.Flush()
		}
	}, &got))
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("fork/join result = %v, want 7", got)
	}
	if n := rep.PerNode[1].Runtime.TasksExecuted; n != 1 {
		t.Fatalf("node 1 executed %d tasks, want the one shipped fork", n)
	}
}

// TestFirstStatementRemoteFaultUDP is for the race detector: every node's
// first statement reads a page of every other node, so some page request
// is served by a node whose main thread has not yet held the monitor. The
// block tables those handlers read were filled by this goroutine (Alloc);
// Run must order the two. Which handler beats which main is up to the Go
// scheduler: thirty rounds caught the missing edge in eleven of twelve
// processes before the fix. TestUDPNodeServesBeforeRun is the
// deterministic form.
func TestFirstStatementRemoteFaultUDP(t *testing.T) {
	const nodes = 6
	for round := 0; round < 30; round++ {
		cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: nodes, Protocol: filaments.ImplicitInvalidate})
		if err != nil {
			t.Fatal(err)
		}
		pages := make([]filaments.Addr, nodes)
		for i := range pages {
			pages[i] = cl.AllocOwned(filaments.PageSize, i)
		}
		sums := make([]float64, nodes)
		_, err = cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
			for k := 1; k < nodes; k++ {
				sums[rt.ID()] += e.ReadF64(pages[(rt.ID()+k)%nodes])
			}
			e.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sums {
			if s != 0 {
				t.Fatalf("node %d read %v from untouched pages", i, s)
			}
		}
	}
}

// TestUDPNodeServesBeforeRun hosts both nodes of a two-process cluster in
// this process and lets node 0 finish a remote read of node 1's page
// before node 1's Run is even called: node 1's endpoint has been serving
// since NewUDPNode, so its handler reads a block table that only this
// goroutine's AllocOwned has touched. Under -race that is a report unless
// the allocation ran under node 1's monitor.
func TestUDPNodeServesBeforeRun(t *testing.T) {
	peers := make([]string, 2)
	for i := range peers {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = c.LocalAddr().String()
		c.Close()
	}
	var nodes [2]*filaments.UDPNode
	var page [2]filaments.Addr
	for i := range nodes {
		u, err := filaments.NewUDPNode(filaments.UDPNodeConfig{
			ID: i, Nodes: 2, Peers: peers, Protocol: filaments.ImplicitInvalidate, Linger: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		nodes[i] = u
		page[i] = u.AllocOwned(filaments.PageSize, 1)
	}
	read := make(chan float64, 1)
	done := make(chan error, 1)
	go func() {
		_, err := nodes[0].Run(func(_ *filaments.Runtime, e *filaments.Exec) {
			read <- e.ReadF64(page[0])
			e.Barrier()
		})
		done <- err
	}()
	if v := <-read; v != 0 {
		t.Fatalf("node 0 read %v from an untouched page", v)
	}
	if _, err := nodes[1].Run(func(_ *filaments.Runtime, e *filaments.Exec) { e.Barrier() }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
