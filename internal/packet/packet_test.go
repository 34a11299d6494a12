package packet

import (
	"testing"
	"testing/quick"

	"filaments/internal/cost"
	"filaments/internal/kernel"
	"filaments/internal/sim"
	"filaments/internal/simnet"
	"filaments/internal/threads"
)

const (
	svcEcho ServiceID = iota
	svcCounter
	svcCritical
)

type fixture struct {
	eng   *sim.Engine
	nw    *simnet.Network
	nodes []*threads.Node
	eps   []*Endpoint
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	eng := sim.New(1)
	m := cost.Default()
	nw := simnet.New(eng, &m, n)
	fx := &fixture{eng: eng, nw: nw}
	for i := 0; i < n; i++ {
		node := threads.NewNode(nw, simnet.NodeID(i))
		ep := New(node)
		fx.nodes = append(fx.nodes, node)
		fx.eps = append(fx.eps, ep)
		node.Start()
	}
	return fx
}

// registerEcho installs an idempotent echo service on every endpoint.
func (fx *fixture) registerEcho() {
	for _, ep := range fx.eps {
		ep.Register(svcEcho, Service{
			Name:       "echo",
			Idempotent: true,
			Category:   threads.CatData,
			Handler: func(from simnet.NodeID, req any) (any, int, Verdict) {
				return req, 16, Reply
			},
		})
	}
}

func (fx *fixture) run(t *testing.T) {
	t.Helper()
	if err := fx.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// Figure 3(a): no problems — request then reply, two messages total.
func TestScenarioNoProblems(t *testing.T) {
	fx := newFixture(t, 2)
	fx.registerEcho()
	var got any
	fx.eng.Schedule(0, func() {
		fx.nodes[0].Spawn("caller", func(th kernel.Thread) {
			got = fx.eps[0].Call(th, 1, svcEcho, "hi", 16, threads.CatData)
			fx.nodes[0].Stop()
			fx.nodes[1].Stop()
		})
	})
	fx.run(t)
	if got != "hi" {
		t.Fatalf("got %v", got)
	}
	st := fx.nw.Stats()
	if st.FramesSent != 2 {
		t.Fatalf("frames = %d, want 2 (request + reply)", st.FramesSent)
	}
	if fx.eps[0].Stats().Retransmits != 0 {
		t.Fatal("unexpected retransmission")
	}
}

// Figure 3(b): request lost — requester times out and retransmits.
func TestScenarioRequestLost(t *testing.T) {
	fx := newFixture(t, 2)
	fx.registerEcho()
	first := true
	fx.nw.DropFilter = func(f *simnet.Frame) bool {
		if _, isReq := f.Payload.(wireRequest); isReq && first {
			first = false
			return true
		}
		return false
	}
	var got any
	fx.eng.Schedule(0, func() {
		fx.nodes[0].Spawn("caller", func(th kernel.Thread) {
			got = fx.eps[0].Call(th, 1, svcEcho, "hi", 16, threads.CatData)
			fx.nodes[0].Stop()
			fx.nodes[1].Stop()
		})
	})
	fx.run(t)
	if got != "hi" {
		t.Fatalf("got %v", got)
	}
	if fx.eps[0].Stats().Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", fx.eps[0].Stats().Retransmits)
	}
}

// Figure 3(c): reply lost — request retransmitted, reply regenerated.
func TestScenarioReplyLost(t *testing.T) {
	fx := newFixture(t, 2)
	fx.registerEcho()
	first := true
	fx.nw.DropFilter = func(f *simnet.Frame) bool {
		if _, isRep := f.Payload.(wireReply); isRep && first {
			first = false
			return true
		}
		return false
	}
	var got any
	fx.eng.Schedule(0, func() {
		fx.nodes[0].Spawn("caller", func(th kernel.Thread) {
			got = fx.eps[0].Call(th, 1, svcEcho, "hi", 16, threads.CatData)
			fx.nodes[0].Stop()
			fx.nodes[1].Stop()
		})
	})
	fx.run(t)
	if got != "hi" {
		t.Fatalf("got %v", got)
	}
	if fx.eps[0].Stats().Retransmits != 1 {
		t.Fatalf("retransmits = %d", fx.eps[0].Stats().Retransmits)
	}
	// Echo is idempotent, so the replier re-executed rather than caching.
	if fx.eps[1].Stats().RepliesSent != 2 {
		t.Fatalf("replies sent = %d, want 2", fx.eps[1].Stats().RepliesSent)
	}
}

// Figure 3(d): reply delayed past the timeout — the retransmission produces
// a duplicate reply, which the requester discards.
func TestScenarioReplyDelayed(t *testing.T) {
	fx := newFixture(t, 2)
	fx.registerEcho()
	m := fx.nodes[0].Model()
	delayed := false
	fx.nw.DelayFilter = func(f *simnet.Frame) sim.Duration {
		if _, isRep := f.Payload.(wireReply); isRep && !delayed {
			delayed = true
			return m.RetransmitTimeout + 5*sim.Millisecond
		}
		return 0
	}
	calls := 0
	var got any
	fx.eng.Schedule(0, func() {
		fx.nodes[0].Spawn("caller", func(th kernel.Thread) {
			got = fx.eps[0].Call(th, 1, svcEcho, "hi", 16, threads.CatData)
			calls++
			// Allow the delayed duplicate to arrive before stopping.
			fx.nodes[0].Engine().Schedule(2*m.RetransmitTimeout, func() {
				fx.nodes[0].Inject(struct{}{})
			})
			th.Block()
		})
	})
	// Stop the nodes once everything settles.
	fx.eng.Schedule(5*m.RetransmitTimeout, func() {
		fx.nodes[0].Stop()
		fx.nodes[1].Stop()
	})
	// RawHandler unblocks the parked caller thread at the end.
	err := fx.eng.Run()
	if _, deadlock := err.(*sim.DeadlockError); !deadlock {
		// The caller thread stays parked; that is expected in this test.
		if err != nil {
			t.Fatal(err)
		}
	}
	if got != "hi" || calls != 1 {
		t.Fatalf("got %v calls %d", got, calls)
	}
	if fx.eps[0].Stats().Retransmits != 1 {
		t.Fatalf("retransmits = %d", fx.eps[0].Stats().Retransmits)
	}
}

// A non-idempotent service must not re-execute on duplicate requests; the
// cached reply is replayed.
func TestNonIdempotentDedup(t *testing.T) {
	fx := newFixture(t, 2)
	count := 0
	fx.eps[1].Register(svcCounter, Service{
		Name:     "counter",
		Category: threads.CatData,
		Handler: func(from simnet.NodeID, req any) (any, int, Verdict) {
			count++
			return count, 8, Reply
		},
	})
	// Drop the first reply so the request is retransmitted.
	first := true
	fx.nw.DropFilter = func(f *simnet.Frame) bool {
		if _, isRep := f.Payload.(wireReply); isRep && first {
			first = false
			return true
		}
		return false
	}
	var got any
	fx.eng.Schedule(0, func() {
		fx.nodes[0].Spawn("caller", func(th kernel.Thread) {
			got = fx.eps[0].Call(th, 1, svcCounter, nil, 8, threads.CatData)
			fx.nodes[0].Stop()
			fx.nodes[1].Stop()
		})
	})
	fx.run(t)
	if got != 1 || count != 1 {
		t.Fatalf("got %v, count %d; duplicate re-executed", got, count)
	}
	if fx.eps[1].Stats().DupSuppressed != 1 {
		t.Fatalf("dupSuppressed = %d", fx.eps[1].Stats().DupSuppressed)
	}
}

// TestReplyCacheEvictionOrder pins the reply cache's replacement policy:
// least-recently-USED, not least-recently-inserted. A duplicate request
// refreshes its entry's recency, so the entry a retransmitting requester
// is still draining stays resident while a colder one is evicted. The
// execution counter discriminates: a suppressed duplicate leaves it
// unchanged, an evicted entry re-executes the handler.
func TestReplyCacheEvictionOrder(t *testing.T) {
	fx := newFixture(t, 2)
	count := 0
	fx.eps[1].Register(svcCounter, Service{
		Name:     "counter",
		Category: threads.CatData, // non-idempotent: replies are cached
		Handler: func(from simnet.NodeID, req any) (any, int, Verdict) {
			count++
			return count, 8, Reply
		},
	})
	fx.eps[1].cacheCap = 3
	send := func(seq uint64) {
		fx.eps[1].handleRequest(0, wireRequest{Svc: svcCounter, Seq: seq, Size: 8})
	}
	fx.eng.Schedule(0, func() {
		fx.nodes[1].Spawn("driver", func(th kernel.Thread) {
			send(1)
			send(2)
			send(3) // cache full, recency front→back [3 2 1]
			send(1) // duplicate: suppressed, refreshed → [1 3 2]
			send(4) // evicts 2 (LRU; FIFO would evict 1) → [4 1 3]
			send(2) // evicted, so re-executes; inserting evicts 3 → [2 4 1]
			send(1) // refreshed above, still resident: suppressed
			send(3) // evicted by 2's reinsertion: re-executes
			fx.nodes[0].Stop()
			fx.nodes[1].Stop()
		})
	})
	fx.run(t)
	if count != 6 {
		t.Fatalf("handler ran %d times, want 6 (seqs 1 2 3, then evicted 4 2 3)", count)
	}
	if dup := fx.eps[1].Stats().DupSuppressed; dup != 2 {
		t.Fatalf("dupSuppressed = %d, want 2", dup)
	}
}

// Critical sections: requests for services that modify critical data are
// dropped while the flag is set and serviced after it clears.
func TestCriticalSectionDrop(t *testing.T) {
	fx := newFixture(t, 2)
	served := 0
	fx.eps[1].Register(svcCritical, Service{
		Name:             "critical",
		Idempotent:       true,
		ModifiesCritical: true,
		Category:         threads.CatData,
		Handler: func(from simnet.NodeID, req any) (any, int, Verdict) {
			//dflint:allow handleridem the test counts handler executions on purpose to assert the drop/retry schedule
			served++
			return "ok", 8, Reply
		},
	})
	m := fx.nodes[0].Model()
	fx.eng.Schedule(0, func() {
		// Node 1 enters its critical section for 1.5 timeouts.
		fx.nodes[1].Critical = true
		fx.eng.Schedule(m.RetransmitTimeout+m.RetransmitTimeout/2, func() {
			fx.nodes[1].Critical = false
		})
		fx.nodes[0].Spawn("caller", func(th kernel.Thread) {
			got := fx.eps[0].Call(th, 1, svcCritical, nil, 8, threads.CatData)
			if got != "ok" {
				t.Errorf("got %v", got)
			}
			fx.nodes[0].Stop()
			fx.nodes[1].Stop()
		})
	})
	fx.run(t)
	if served != 1 {
		t.Fatalf("served = %d", served)
	}
	if fx.eps[1].Stats().Dropped == 0 {
		t.Fatal("no requests were dropped during the critical section")
	}
	if fx.eps[0].Stats().Retransmits == 0 {
		t.Fatal("requester never retransmitted")
	}
}

// Handle.Complete finishes a request locally (used by broadcast barrier
// release) and suppresses the retransmission.
func TestHandleComplete(t *testing.T) {
	fx := newFixture(t, 2)
	// Service that always drops: the reply will come "out of band".
	fx.eps[1].Register(svcEcho, Service{
		Name:       "defer",
		Idempotent: true,
		Category:   threads.CatSync,
		Handler: func(from simnet.NodeID, req any) (any, int, Verdict) {
			return nil, 0, Drop
		},
	})
	var got any
	fx.eng.Schedule(0, func() {
		fx.nodes[0].Spawn("caller", func(th kernel.Thread) {
			h := fx.eps[0].RequestAsync(1, svcEcho, "x", 8, threads.CatSync, func(r any) { got = r })
			fx.nodes[0].Engine().Schedule(sim.Millisecond, func() {
				fx.nodes[0].Inject(func() {})
				h.Complete("out-of-band")
			})
			fx.nodes[0].Stop()
			fx.nodes[1].Stop()
		})
	})
	fx.run(t)
	if got != "out-of-band" {
		t.Fatalf("got %v", got)
	}
	if fx.eps[0].Stats().Retransmits != 0 {
		t.Fatalf("retransmits = %d after local completion", fx.eps[0].Stats().Retransmits)
	}
	if fx.eps[0].Outstanding() != 0 {
		t.Fatal("request still outstanding")
	}
}

// Property: under any loss rate < 1, every request eventually completes
// exactly once.
func TestReliabilityUnderLoss(t *testing.T) {
	f := func(seed int64, lossPct uint8) bool {
		loss := float64(lossPct%90) / 100.0
		eng := sim.New(seed)
		m := cost.Default()
		nw := simnet.New(eng, &m, 2)
		nw.LossRate = loss
		a := threads.NewNode(nw, 0)
		b := threads.NewNode(nw, 1)
		epA, epB := New(a), New(b)
		epB.Register(svcEcho, Service{
			Name: "echo", Idempotent: true, Category: threads.CatData,
			Handler: func(from simnet.NodeID, req any) (any, int, Verdict) {
				return req, 16, Reply
			},
		})
		a.Start()
		b.Start()
		const calls = 5
		completions := 0
		eng.Schedule(0, func() {
			a.Spawn("caller", func(th kernel.Thread) {
				for i := 0; i < calls; i++ {
					if got := epA.Call(th, 1, svcEcho, i, 16, threads.CatData); got != i {
						t.Errorf("echo returned %v, want %d", got, i)
					}
					completions++
				}
				a.Stop()
				b.Stop()
			})
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return completions == calls
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// aliasing is a reply that points into a buffer its handler keeps writing,
// as a DSM page reply points into the frame.
type aliasing struct{ data []byte }

func (a aliasing) Snapshot() any { return aliasing{data: append([]byte(nil), a.data...)} }

// A reply travels, and sits in the reply cache, by reference; the endpoint
// must detach one that offers a Snapshot from its handler's buffer before
// that buffer moves on, for the first delivery and for a replay alike.
func TestReplySnapshotTakenBeforeHandlerBufferMovesOn(t *testing.T) {
	fx := newFixture(t, 2)
	frame := []byte{1, 2, 3}
	fx.eps[1].Register(svcCounter, Service{
		Name: "page", Idempotent: false, Category: threads.CatData,
		Handler: func(simnet.NodeID, any) (any, int, Verdict) {
			// The node writes its frame again as soon as this context ends.
			fx.nodes[1].Schedule(0, func() { frame[0] = 0xAA })
			var reply any = aliasing{data: frame} // sim-only: never meets a codec
			return reply, 16, Reply
		},
	})
	dropped := false
	fx.nw.DropFilter = func(f *simnet.Frame) bool {
		if _, isReply := f.Payload.(wireReply); isReply && !dropped {
			dropped = true // the first reply is lost; the cache answers the retry
			return true
		}
		return false
	}
	var got any
	fx.eng.Schedule(0, func() {
		fx.nodes[0].Spawn("caller", func(th kernel.Thread) {
			got = fx.eps[0].Call(th, 1, svcCounter, nil, 16, threads.CatData)
			fx.nodes[0].Stop()
			fx.nodes[1].Stop()
		})
	})
	fx.run(t)
	if r, ok := got.(aliasing); !ok || r.data[0] != 1 {
		t.Fatalf("the requester saw %v; want the frame as it was when served", got)
	}
	if frame[0] != 0xAA || fx.eps[1].Stats().DupSuppressed != 1 {
		t.Fatalf("frame[0]=%#x, %d replays: the scenario did not happen", frame[0], fx.eps[1].Stats().DupSuppressed)
	}
}
