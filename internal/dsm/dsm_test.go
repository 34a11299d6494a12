package dsm

import (
	"testing"
	"testing/quick"

	"filaments/internal/cost"
	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/packet"
	"filaments/internal/sim"
	"filaments/internal/simnet"
	"filaments/internal/threads"
)

// spawn adapts a *threads.Thread body to the kernel.Thread Spawn signature.
func spawn(n *threads.Node, name string, body func(*threads.Thread)) {
	n.Spawn(name, func(kt kernel.Thread) { body(kt.(*threads.Thread)) })
}

type fixture struct {
	eng   *sim.Engine
	nw    *simnet.Network
	nodes []*threads.Node
	eps   []*packet.Endpoint
	dsms  []*DSM
	space *Space
}

func newFixture(t *testing.T, n int, proto Protocol) *fixture {
	t.Helper()
	return newFixtureSeed(t, n, proto, 1)
}

func newFixtureSeed(t *testing.T, n int, proto Protocol, seed int64) *fixture {
	if t != nil {
		t.Helper()
	}
	eng := sim.New(seed)
	m := cost.Default()
	nw := simnet.New(eng, &m, n)
	fx := &fixture{eng: eng, nw: nw, space: NewSpace(1 << 24)}
	for i := 0; i < n; i++ {
		node := threads.NewNode(nw, simnet.NodeID(i))
		ep := packet.New(node)
		d := New(node, ep, fx.space, proto)
		fx.nodes = append(fx.nodes, node)
		fx.eps = append(fx.eps, ep)
		fx.dsms = append(fx.dsms, d)
		node.Start()
	}
	return fx
}

// run executes body on the given node's thread after setup, then stops all
// nodes when every spawned body finishes.
func (fx *fixture) run(t *testing.T, bodies map[int]func(th *threads.Thread)) {
	t.Helper()
	remaining := len(bodies)
	fx.eng.Schedule(0, func() {
		// Spawn in node order: map iteration order would vary the spawn
		// sequence run to run (dflint: maprange).
		for id := range fx.nodes {
			body, ok := bodies[id]
			if !ok {
				continue
			}
			spawn(fx.nodes[id], "test", func(th *threads.Thread) {
				body(th)
				remaining--
				if remaining == 0 {
					for _, n := range fx.nodes {
						n.Stop()
					}
				}
			})
		}
	})
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// stopAll stops every node (used by tests that manage their own bodies).
func (fx *fixture) stopAll() {
	for _, n := range fx.nodes {
		n.Stop()
	}
}

// testBarrier is a test-only cluster barrier built directly on thread
// block/ready (the real tournament barrier lives in package reduce).
type testBarrier struct {
	fx      *fixture
	arrived int
	waiting []*threads.Thread
}

func (b *testBarrier) wait(id int, th *threads.Thread) {
	b.arrived++
	if b.arrived == len(b.fx.nodes) {
		b.arrived = 0
		for _, d := range b.fx.dsms {
			d.AtBarrier()
		}
		ws := b.waiting
		b.waiting = nil
		for _, w := range ws {
			w.Node().Ready(w, false)
		}
		return
	}
	b.waiting = append(b.waiting, th)
	th.Block()
}

// compute charges total CPU in filament-sized slices with dispatch points,
// the way real Filaments programs run: incoming requests are serviced with
// at most one slice of delay.
func compute(th *threads.Thread, total sim.Duration) {
	const slice = sim.Millisecond
	for total > 0 {
		d := slice
		if total < d {
			d = total
		}
		th.Node().Charge(threads.CatWork, d)
		th.Preempt()
		total -= d
	}
}

func TestAllocPaddingAndAlignment(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.Alloc(100, AllocOpts{})
	b := s.Alloc(100, AllocOpts{})
	if a%PageSize != 0 || b%PageSize != 0 {
		t.Fatalf("allocations not page aligned: %d %d", a, b)
	}
	if PageOf(a) == PageOf(b) {
		t.Fatal("two allocations share a page; padding failed")
	}
	if s.BlockOf(a) == s.BlockOf(b) {
		t.Fatal("two allocations share a block")
	}
}

func TestAllocGroups(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.Alloc(4*PageSize, AllocOpts{GroupPages: 2})
	if s.BlockOf(a) != s.BlockOf(a+PageSize) {
		t.Fatal("pages 0,1 should share a block")
	}
	if s.BlockOf(a) == s.BlockOf(a+2*PageSize) {
		t.Fatal("pages 0,2 should be in different blocks")
	}
	if got := s.blockSize(s.BlockOf(a)); got != 2*PageSize {
		t.Fatalf("block size = %d", got)
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	s := NewSpace(2 * PageSize)
	s.Alloc(PageSize, AllocOpts{})
	s.Alloc(PageSize, AllocOpts{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	s.Alloc(1, AllocOpts{})
}

func TestGroupOwnershipBoundaryPanics(t *testing.T) {
	s := NewSpace(1 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when a group spans owners")
		}
	}()
	s.Alloc(2*PageSize, AllocOpts{
		GroupPages:  2,
		OwnerByPage: func(p int) simnet.NodeID { return simnet.NodeID(p) },
	})
}

func TestLocalAccessNoMessages(t *testing.T) {
	fx := newFixture(t, 2, WriteInvalidate)
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			fx.dsms[0].WriteF64(th, a, 3.25)
			if got := fx.dsms[0].ReadF64(th, a); got != 3.25 {
				t.Errorf("got %v", got)
			}
		},
	})
	if fx.nw.Stats().FramesSent != 0 {
		t.Fatalf("local access sent %d frames", fx.nw.Stats().FramesSent)
	}
}

func TestRemoteReadFetch(t *testing.T) {
	for _, proto := range []Protocol{Migratory, WriteInvalidate, ImplicitInvalidate} {
		fx := newFixture(t, 2, proto)
		a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
		var got float64
		fx.run(t, map[int]func(*threads.Thread){
			0: func(th *threads.Thread) {
				fx.dsms[0].WriteF64(th, a, 7.5)
				// Give node 1 time to fetch after the write.
				th.Node().Engine().Schedule(sim.Millisecond, func() { th.Node().Ready(th, false) })
				th.Block()
			},
			1: func(th *threads.Thread) {
				compute(th, 2*sim.Millisecond) // let 0 write first
				got = fx.dsms[1].ReadF64(th, a)
			},
		})
		if got != 7.5 {
			t.Fatalf("%v: got %v", proto, got)
		}
		if fx.dsms[1].Stats().ReadFaults != 1 {
			t.Fatalf("%v: faults = %d", proto, fx.dsms[1].Stats().ReadFaults)
		}
	}
}

func TestMigratoryOwnershipMoves(t *testing.T) {
	fx := newFixture(t, 3, Migratory)
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			fx.dsms[0].WriteF64(th, a, 1)
		},
		1: func(th *threads.Thread) {
			compute(th, 50*sim.Millisecond)
			v := fx.dsms[1].ReadF64(th, a)
			fx.dsms[1].WriteF64(th, a, v+1) // no extra fault: migratory granted RW
		},
		2: func(th *threads.Thread) {
			compute(th, 150*sim.Millisecond)
			// Node 2's hint still points at node 0: exercises the redirect
			// chain 0 -> 1.
			if v := fx.dsms[2].ReadF64(th, a); v != 2 {
				t.Errorf("node 2 read %v, want 2", v)
			}
		},
	})
	if fx.dsms[1].Stats().WriteFaults != 0 {
		t.Fatal("migratory read grant should include write access")
	}
	if fx.dsms[2].Stats().Redirected == 0 {
		t.Fatal("expected a redirect following the ownership chain")
	}
}

func TestWriteInvalidateInvalidatesReaders(t *testing.T) {
	fx := newFixture(t, 3, WriteInvalidate)
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	var after1, after2 float64
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			fx.dsms[0].WriteF64(th, a, 10)
			compute(th, 100*sim.Millisecond)
			// Readers hold copies now; upgrading must invalidate them.
			fx.dsms[0].WriteF64(th, a, 20)
		},
		1: func(th *threads.Thread) {
			compute(th, 20*sim.Millisecond)
			after1 = fx.dsms[1].ReadF64(th, a)
			compute(th, 200*sim.Millisecond)
			after2 = fx.dsms[1].ReadF64(th, a) // must refault and see 20
		},
		2: func(th *threads.Thread) {
			compute(th, 20*sim.Millisecond)
			_ = fx.dsms[2].ReadF64(th, a)
		},
	})
	if after1 != 10 || after2 != 20 {
		t.Fatalf("reads = %v, %v; want 10, 20", after1, after2)
	}
	if fx.dsms[0].Stats().InvalsSent != 2 {
		t.Fatalf("invals sent = %d, want 2", fx.dsms[0].Stats().InvalsSent)
	}
	if fx.dsms[1].Stats().ReadFaults != 2 {
		t.Fatalf("node1 faults = %d, want 2 (copy was invalidated)", fx.dsms[1].Stats().ReadFaults)
	}
}

func TestImplicitInvalidateNoInvalMessages(t *testing.T) {
	fx := newFixture(t, 2, ImplicitInvalidate)
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	bar := &testBarrier{fx: fx}
	var r1, r2 float64
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			fx.dsms[0].WriteF64(th, a, 1)
			bar.wait(0, th)
			// Owner keeps write access even while node 1 holds a copy: no
			// downgrade, no invalidation — implicit-invalidate's point.
			// (Exactly one local write fault exists: the virgin-block
			// upgrade at the very first write.)
			fx.dsms[0].WriteF64(th, a, 2)
			if fx.dsms[0].Stats().WriteFaults != 1 {
				t.Errorf("owner write faults = %d, want only the virgin upgrade",
					fx.dsms[0].Stats().WriteFaults)
			}
			bar.wait(0, th)
			bar.wait(0, th)
		},
		1: func(th *threads.Thread) {
			bar.wait(1, th)
			r1 = fx.dsms[1].ReadF64(th, a)
			bar.wait(1, th) // copy dies here
			bar.wait(1, th)
			r2 = fx.dsms[1].ReadF64(th, a)
		},
	})
	// Interleaving: write(1); barrier; read r1 and write(2) race-free only
	// per-page... here they do race in real time, but the write is local
	// and the read faults before it — accept either 1 or 2 for r1? No:
	// node 1 reads after the first barrier, node 0 writes 2 after it too.
	// This would be a data race in a real program; what the protocol must
	// guarantee is only that after the *second* barrier node 1 refetches.
	if r2 != 2 {
		t.Fatalf("read after barrier = %v, want 2", r2)
	}
	_ = r1
	if fx.dsms[0].Stats().InvalsSent != 0 || fx.dsms[1].Stats().InvalsRecved != 0 {
		t.Fatal("implicit-invalidate sent invalidation messages")
	}
	if fx.dsms[1].Stats().ReadFaults != 2 {
		t.Fatalf("node1 faults = %d, want 2 (copy discarded at barrier)", fx.dsms[1].Stats().ReadFaults)
	}
}

func TestMirageWindowDropsAndRetries(t *testing.T) {
	fx := newFixture(t, 2, Migratory)
	m := fx.nodes[0].Model()
	m.MirageWindow = 50 * sim.Millisecond
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	var got float64
	var elapsed sim.Duration
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			fx.dsms[0].WriteF64(th, a, 5)
		},
		1: func(th *threads.Thread) {
			// Request immediately: inside node 0's window (page acquired
			// at alloc, re-acquired at t=0 via local write).
			start := th.Node().Engine().Now()
			got = fx.dsms[1].ReadF64(th, a)
			elapsed = th.Node().Engine().Now().Sub(start)
		},
	})
	if got != 5 {
		t.Fatalf("got %v", got)
	}
	if fx.dsms[0].Stats().MirageDrops == 0 {
		t.Fatal("window never dropped a request")
	}
	if elapsed < m.MirageWindow {
		t.Fatalf("page obtained after %v, inside the %v window", elapsed, m.MirageWindow)
	}
}

// TestMirageDropCounterAndTraceAgree pins down that a window drop is
// observable through BOTH channels the observability layer offers: the
// dsm.mirage_drops counter and a "mirage_drop" trace instant naming the
// block and the rejected requester. Dashboards read the counter and the
// trace viewer reads the instant; a drop that shows up in one but not
// the other would make the two tell different stories about the same
// run.
func TestMirageDropCounterAndTraceAgree(t *testing.T) {
	fx := newFixture(t, 2, Migratory)
	m := fx.nodes[0].Model()
	m.MirageWindow = 50 * sim.Millisecond
	tr := obs.NewTracer()
	for _, n := range fx.nodes {
		n.Obs().SetTracer(tr)
	}
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	b := fx.space.BlockOf(a)
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			fx.dsms[0].WriteF64(th, a, 5)
		},
		1: func(th *threads.Thread) {
			_ = fx.dsms[1].ReadF64(th, a)
		},
	})
	drops := fx.dsms[0].Stats().MirageDrops
	if drops == 0 {
		t.Fatal("window never dropped a request")
	}
	var instants int64
	for _, ev := range tr.Events() {
		if ev.Cat != "dsm" || ev.Name != "mirage_drop" {
			continue
		}
		instants++
		if ev.Dur >= 0 {
			t.Errorf("mirage_drop must be an instant event, got span of %d", ev.Dur)
		}
		if ev.Node != 0 {
			t.Errorf("drop emitted by node %d; only node 0 holds the page", ev.Node)
		}
		want := []obs.Arg{{Key: "block", Val: int64(b)}, {Key: "from", Val: 1}}
		for _, w := range want {
			found := false
			for _, arg := range ev.Args {
				if arg.Key != w.Key {
					continue
				}
				found = true
				if arg.Val != w.Val {
					t.Errorf("mirage_drop arg %s = %d, want %d", arg.Key, arg.Val, w.Val)
				}
			}
			if !found {
				t.Errorf("mirage_drop instant missing arg %q", w.Key)
			}
		}
	}
	if instants != int64(drops) {
		t.Errorf("counter recorded %d drops but the trace has %d mirage_drop instants", drops, instants)
	}
}

func TestOverlapOtherThreadRunsDuringFault(t *testing.T) {
	fx := newFixture(t, 2, ImplicitInvalidate)
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	workDone := false
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			fx.dsms[0].WriteF64(th, a, 1)
		},
		1: func(th *threads.Thread) {
			n := th.Node()
			spawn(n, "background", func(bg *threads.Thread) {
				n.Charge(threads.CatWork, sim.Millisecond)
				workDone = true
			})
			before := workDone
			_ = fx.dsms[1].ReadF64(th, a) // blocks ~4 ms; background runs
			if before {
				t.Error("background ran before the fault — test setup broken")
			}
			if !workDone {
				t.Error("fault did not overlap with other thread's computation")
			}
		},
	})
}

func TestQuiesce(t *testing.T) {
	fx := newFixture(t, 2, ImplicitInvalidate)
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			fx.dsms[0].WriteF64(th, a, 1)
		},
		1: func(th *threads.Thread) {
			d := fx.dsms[1]
			// Fault from a helper thread, then quiesce on the main one.
			n := th.Node()
			spawn(n, "faulter", func(ft *threads.Thread) {
				_ = d.ReadF64(ft, a)
			})
			th.Yield() // let the faulter start its fetch
			d.Quiesce(th)
			if d.Outstanding() != 0 {
				t.Error("outstanding after quiesce")
			}
		},
	})
}

func TestMatrixStriping(t *testing.T) {
	s := NewSpace(1 << 24)
	const rows, cols, nodes = 256, 256, 8
	m := Matrix{Rows: rows, Cols: cols}
	m.Base = s.Alloc(m.Bytes(), StripedRows(rows, cols, nodes))
	for k := 0; k < nodes; k++ {
		lo, hi := StripBounds(k, rows, nodes)
		if StripOf(lo, rows, nodes) != k || StripOf(hi-1, rows, nodes) != k {
			t.Fatalf("strip bounds inconsistent for %d: [%d,%d)", k, lo, hi)
		}
		// A row in the middle of the strip is owned by node k.
		mid := (lo + hi) / 2
		b := s.BlockOf(m.Addr(mid, 0))
		if s.HomeOf(b) != simnet.NodeID(k) {
			t.Fatalf("row %d homed at %d, want %d", mid, s.HomeOf(b), k)
		}
	}
}

// Race-free property check: nodes repeatedly write their own strip and read
// neighbours' strips between barriers; every read must observe the latest
// barrier-ordered values, for every protocol.
func TestConsistencyRaceFreeRounds(t *testing.T) {
	for _, proto := range []Protocol{Migratory, WriteInvalidate, ImplicitInvalidate} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			const n, cells, rounds = 4, 4, 5
			fx := newFixture(t, n, proto)
			// One page-sized cell array per node.
			addrs := make([]Addr, n)
			for i := range addrs {
				addrs[i] = fx.space.Alloc(cells*8, AllocOpts{Owner: simnet.NodeID(i)})
			}
			bar := &testBarrier{fx: fx}
			bodies := make(map[int]func(*threads.Thread))
			for id := 0; id < n; id++ {
				id := id
				bodies[id] = func(th *threads.Thread) {
					d := fx.dsms[id]
					for r := 1; r <= rounds; r++ {
						for c := 0; c < cells; c++ {
							d.WriteF64(th, addrs[id]+Addr(c*8), float64(r*100+id*10+c))
						}
						bar.wait(id, th)
						// Read the next node's strip; expect this round's
						// values.
						peer := (id + 1) % n
						for c := 0; c < cells; c++ {
							want := float64(r*100 + peer*10 + c)
							got := d.ReadF64(th, addrs[peer]+Addr(c*8))
							if got != want {
								t.Errorf("round %d node %d read %v, want %v", r, id, got, want)
								return
							}
						}
						bar.wait(id, th)
					}
				}
			}
			fx.run(t, bodies)
		})
	}
}

// Consistency must survive frame loss: Packet retransmission makes the DSM
// reliable over an unreliable wire.
func TestConsistencyUnderLoss(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		fx := newFixtureSeed(t, 4, ImplicitInvalidate, seed)
		fx.nw.LossRate = 0.15
		const n, cells, rounds = 4, 4, 4
		addrs := make([]Addr, n)
		for i := range addrs {
			addrs[i] = fx.space.Alloc(cells*8, AllocOpts{Owner: simnet.NodeID(i)})
		}
		bar := &testBarrier{fx: fx}
		bodies := make(map[int]func(*threads.Thread))
		for id := 0; id < n; id++ {
			id := id
			bodies[id] = func(th *threads.Thread) {
				d := fx.dsms[id]
				for r := 1; r <= rounds; r++ {
					for c := 0; c < cells; c++ {
						d.WriteF64(th, addrs[id]+Addr(c*8), float64(r*100+id*10+c))
					}
					bar.wait(id, th)
					peer := (id + 1) % n
					for c := 0; c < cells; c++ {
						want := float64(r*100 + peer*10 + c)
						if got := d.ReadF64(th, addrs[peer]+Addr(c*8)); got != want {
							t.Errorf("seed %d round %d node %d: got %v want %v", seed, r, id, got, want)
							return
						}
					}
					bar.wait(id, th)
				}
			}
		}
		fx.run(t, bodies)
	}
}

// A page group must move as one unit: one request fetches every page in it.
func TestGroupMovesAsUnit(t *testing.T) {
	fx := newFixture(t, 2, Migratory)
	a := fx.space.Alloc(4*PageSize, AllocOpts{Owner: 0, GroupPages: 4})
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			for p := 0; p < 4; p++ {
				fx.dsms[0].WriteF64(th, a+Addr(p*PageSize), float64(p))
			}
		},
		1: func(th *threads.Thread) {
			compute(th, 5*sim.Millisecond)
			// Touch the last page; all four must arrive together.
			if got := fx.dsms[1].ReadF64(th, a+Addr(3*PageSize)); got != 3 {
				t.Errorf("got %v", got)
			}
			for p := 0; p < 3; p++ {
				if !fx.dsms[1].Readable(a + Addr(p*PageSize)) {
					t.Errorf("page %d of the group did not arrive", p)
				}
			}
		},
	})
	if rf := fx.dsms[1].Stats().ReadFaults; rf != 1 {
		t.Fatalf("faults = %d, want 1 for the whole group", rf)
	}
}

// Peek must find the owner wherever the block migrated.
func TestPeekFollowsOwnership(t *testing.T) {
	fx := newFixture(t, 3, Migratory)
	a := fx.space.Alloc(8, AllocOpts{Owner: 0})
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) { fx.dsms[0].WriteF64(th, a, 5) },
		2: func(th *threads.Thread) {
			compute(th, 10*sim.Millisecond)
			fx.dsms[2].WriteF64(th, a, 9)
		},
	})
	// After the run, node 2 owns the block.
	if v, ok := fx.dsms[2].Peek(a); !ok || v != 9 {
		t.Fatalf("node2 peek = %v, %v", v, ok)
	}
	if _, ok := fx.dsms[0].Peek(a); ok {
		t.Fatal("node0 still claims ownership")
	}
}

// The virgin-block optimization must not transfer data for never-written
// blocks, and the receiver must see zeros.
func TestVirginBlockTransfersNoData(t *testing.T) {
	fx := newFixture(t, 2, Migratory)
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	fx.run(t, map[int]func(*threads.Thread){
		1: func(th *threads.Thread) {
			if got := fx.dsms[1].ReadF64(th, a); got != 0 {
				t.Errorf("virgin block read %v, want 0", got)
			}
		},
	})
	if out := fx.dsms[0].Stats().BytesOut; out != 0 {
		t.Fatalf("virgin transfer moved %d bytes", out)
	}
}

// Sequentially-consistent single-location history: with one writer and many
// readers under write-invalidate, a reader never observes values out of
// write order.
func TestMonotonicReadsProperty(t *testing.T) {
	f := func(seed int64) bool {
		fx := newFixtureSeed(nil, 3, WriteInvalidate, seed%100+1)
		a := fx.space.Alloc(8, AllocOpts{Owner: 0})
		ok := true
		fx.eng.Schedule(0, func() {
			spawn(fx.nodes[0], "writer", func(th *threads.Thread) {
				for v := 1; v <= 20; v++ {
					fx.dsms[0].WriteF64(th, a, float64(v))
					compute(th, 2*sim.Millisecond)
				}
				fx.stopAll()
			})
			for r := 1; r <= 2; r++ {
				r := r
				spawn(fx.nodes[r], "reader", func(th *threads.Thread) {
					last := 0.0
					for i := 0; i < 15; i++ {
						v := fx.dsms[r].ReadF64(th, a)
						if v < last {
							ok = false
						}
						last = v
						fx.dsms[r].AtBarrier() // drop copy to force refetch
						compute(th, 3*sim.Millisecond)
					}
				})
			}
		})
		if err := fx.eng.Run(); err != nil {
			if _, dl := err.(*sim.DeadlockError); !dl {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// accessMonitor counts typed accesses; the embedded nil Monitor makes any
// other callback a loud failure (the test below stays on one node's own
// page, so none fires).
type accessMonitor struct {
	Monitor
	reads, writes int
}

func (m *accessMonitor) OnAttach(*Space) {}

func (m *accessMonitor) OnAccess(_ kernel.NodeID, _ Addr, _ int, write bool, _ kernel.Time) {
	if write {
		m.writes++
	} else {
		m.reads++
	}
}

// The resident hit must decline — and the full path must then do the work
// it exists for — whenever the block is not accessible at the needed
// level, a publish snapshot is pending, or a Monitor is attached.
func TestResidentHitDeclines(t *testing.T) {
	fx := newFixture(t, 2, ImplicitInvalidate)
	a := fx.space.Alloc(PageSize, AllocOpts{Owner: 0})
	b := a + 8
	for _, d := range fx.dsms {
		d.SetDiffs(true) // so a consumed snapshot shows as a version bump
	}
	d0, d1 := fx.dsms[0], fx.dsms[1]
	bar := &testBarrier{fx: fx}
	mon := &accessMonitor{}
	fx.run(t, map[int]func(*threads.Thread){
		0: func(th *threads.Thread) {
			st := &d0.blocks[fx.space.BlockOf(a)]
			// A virgin owned block is readable, not yet writable.
			if v, ok := d0.LoadResident(a); !ok || v != 0 {
				t.Errorf("read of an owned virgin block: %v, %v", v, ok)
			}
			if d0.StoreResident(a, 1) {
				t.Error("store hit a read-only block")
			}
			d0.WriteI64(th, a, 41) // full path: write fault, owner upgrade
			if d0.Stats().WriteFaults != 1 || !d0.StoreResident(b, 42) {
				t.Errorf("after the upgrade: %d write faults, access %d", d0.Stats().WriteFaults, st.access)
			}
			if v, ok := d0.LoadResident(b); !ok || v != 42 {
				t.Errorf("read back %v, %v", v, ok)
			}
			bar.wait(0, th) // node 1 fetches a copy: the frame is published
			bar.wait(0, th)
			if !st.snap || st.access != accRW {
				t.Fatalf("after serving a copy: snap=%v access=%d", st.snap, st.access)
			}
			ver := st.ver
			if d0.StoreResident(a, 7) {
				t.Error("store hit a frame with a publish snapshot pending")
			}
			if v, _ := d0.LoadResident(a); v != 41 {
				t.Errorf("the declined store changed the frame: %v", v)
			}
			d0.WriteI64(th, a, 43) // full path: twin, bump the version, then store
			if st.snap || st.ver != ver+1 || string(st.shadow[:8]) != string([]byte{41, 0, 0, 0, 0, 0, 0, 0}) {
				t.Errorf("full-path store did not twin the published frame: snap=%v ver %d -> %d", st.snap, ver, st.ver)
			}
			if !d0.StoreResident(a, 44) {
				t.Error("store declined after the snapshot was taken")
			}

			// With a monitor attached every access takes the full path.
			fx.space.SetMonitor(mon)
			if _, ok := d0.LoadResident(a); ok {
				t.Error("read hit under a monitor")
			}
			if d0.StoreResident(a, 9) {
				t.Error("store hit under a monitor")
			}
			if got := d0.ReadI64(th, a); got != 44 {
				t.Errorf("monitored read = %d", got)
			}
			d0.WriteF64(th, b, 2.5)
			if got := d0.ReadF64(th, b); got != 2.5 {
				t.Errorf("monitored read = %v", got)
			}
			if mon.reads != 2 || mon.writes != 1 {
				t.Errorf("monitor saw %d reads, %d writes; want 2, 1", mon.reads, mon.writes)
			}
			fx.space.SetMonitor(nil)
		},
		1: func(th *threads.Thread) {
			if _, ok := d1.LoadResident(a); ok {
				t.Error("read hit a block this node holds no copy of")
			}
			bar.wait(1, th)
			if got := d1.ReadI64(th, a); got != 41 || d1.Stats().ReadFaults != 1 {
				t.Errorf("remote read = %d after %d faults", got, d1.Stats().ReadFaults)
			}
			if v, ok := d1.LoadResident(b); !ok || v != 42 {
				t.Errorf("read of the fetched copy: %v, %v", v, ok)
			}
			if d1.StoreResident(b, 1) {
				t.Error("store hit a read-only copy")
			}
			bar.wait(1, th) // implicit invalidation discards the copy
			if _, ok := d1.LoadResident(a); ok {
				t.Error("read hit a copy the barrier discarded")
			}
		},
	})
}
