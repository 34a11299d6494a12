package dsm

import (
	"net"
	"runtime"
	"testing"

	"filaments/internal/cost"
	"filaments/internal/kernel"
	"filaments/internal/rtnode"
	"filaments/internal/udptrans"
)

// poolDiscards is set when sync.Pool does not keep what it is given (see
// race_test.go).
var poolDiscards bool

// rtPair is two real-time nodes over loopback UDP, each with a DSM on one
// shared space: node 0 homes the single page at addr, node 1 faults on it.
type rtPair struct {
	nodes [2]*rtnode.Node
	dsms  [2]*DSM
	addr  Addr
}

func newRTPair(t *testing.T, proto Protocol, diffs bool) *rtPair {
	t.Helper()
	if poolDiscards {
		t.Skip("sync.Pool discards buffers under the race detector")
	}
	model := cost.Default()
	model.MirageWindow = 0
	p := &rtPair{}
	space := NewSpace(1 << 20)
	var trs [2]*rtnode.Transport
	var addrs []*net.UDPAddr
	for i := range p.nodes {
		ep, err := udptrans.Listen("127.0.0.1:0", udptrans.Options{MaxRetries: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		p.nodes[i] = rtnode.NewNode(kernel.NodeID(i), &model)
		trs[i] = rtnode.NewTransport(p.nodes[i], ep)
		addrs = append(addrs, ep.Addr())
	}
	for i, tr := range trs {
		tr.SetPeers(addrs)
		p.dsms[i] = New(p.nodes[i], tr, space, proto)
		p.dsms[i].SetDiffs(diffs)
	}
	t.Cleanup(func() {
		for i, tr := range trs {
			p.nodes[i].Close()
			tr.Close()
		}
	})
	p.addr = space.Alloc(PageSize, AllocOpts{Owner: 0})
	// A virgin page ships no frame; make it a real one.
	p.nodes[0].WithLock(func() { p.dsms[0].WriteF64(nil, p.addr, 1) })
	return p
}

// measure runs cycle on a thread of node 1 — warm times unmeasured, so that
// every free list, pool and reply-cache slot has been through one turn,
// then runs times measured — and returns the heap allocations and bytes
// per cycle of the whole process, the serving node's goroutines included.
func (p *rtPair) measure(warm, runs int, cycle func(t kernel.Thread, i int)) (allocs, bytes float64) {
	p.nodes[1].Spawn("faulter", func(t kernel.Thread) {
		for i := 0; i < warm; i++ {
			cycle(t, i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		i := warm
		allocs = testing.AllocsPerRun(runs, func() { cycle(t, i); i++ })
		runtime.ReadMemStats(&after)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
	})
	p.nodes[1].Wait()
	return allocs, bytes
}

// warmCycles is enough remote faults to have filled every slot of the
// serving endpoint's reply cache once.
const warmCycles = 300

// TestRemoteReadFaultAllocatesNoPage is the fault-path allocation gate: a
// steady-state remote read fault under implicit-invalidate, served over
// loopback, costs the client and the server together no page-sized
// allocation, whether the page travels whole or as a diff against last
// round's copy. What is left is about fifteen small objects (the request's
// context, handle, goroutine closure and callback, four payloads boxed
// through any, the codec's Enc and Dec), some 750 bytes; the gate is a
// quarter of a page.
func TestRemoteReadFaultAllocatesNoPage(t *testing.T) {
	for _, diffs := range []bool{false, true} {
		p := newRTPair(t, ImplicitInvalidate, diffs)
		v := 1.0
		write := func() { p.dsms[0].WriteF64(nil, p.addr, v) }
		allocs, bytes := p.measure(warmCycles, 200, func(t kernel.Thread, i int) {
			v = float64(i)
			p.nodes[0].WithLock(write) // the owner's sweep: the next copy differs
			if got := p.dsms[1].ReadF64(t, p.addr); got != v {
				panic("stale read")
			}
			p.dsms[1].AtBarrier() // the copy dies; the next read faults again
		})
		t.Logf("diffs=%v: %.1f allocs, %.0f B per remote read fault", diffs, allocs, bytes)
		if bytes > PageSize/4 {
			t.Errorf("diffs=%v: a remote read fault allocates %.0f B, want ≤ %d", diffs, bytes, PageSize/4)
		}
		if st := p.dsms[1].Stats(); st.ReadFaults < warmCycles+200 {
			t.Errorf("diffs=%v: only %d read faults; the cycle did not fault every time", diffs, st.ReadFaults)
		}
	}
}

// TestLRCIntervalAllocatesNoPage is the write-side gate: one lazy-release
// interval on a non-home node — write fault and twin, release (diff and
// flush to the home), acquire, re-read — takes its frame, twin and flush
// diff from the free list and its served diff from the scratch buffer, so
// all its allocations together stay under one page.
func TestLRCIntervalAllocatesNoPage(t *testing.T) {
	for _, diffs := range []bool{false, true} {
		p := newRTPair(t, LazyRelease, diffs)
		var notices []int32
		acquire := func() { p.dsms[0].AtAcquire(notices) }
		d := p.dsms[1]
		allocs, bytes := p.measure(warmCycles, 200, func(t kernel.Thread, i int) {
			d.WriteF64(t, p.addr+8, float64(i))
			notices = d.AtRelease()
			d.Quiesce(t)
			p.nodes[0].WithLock(acquire)
			d.AtAcquire(notices)
			if got := d.ReadF64(t, p.addr+8); got != float64(i) {
				panic("the home lost the flushed write")
			}
			d.AtAcquire(notices) // drop the read copy: the next write faults again
		})
		t.Logf("diffs=%v: %.1f allocs, %.0f B per interval", diffs, allocs, bytes)
		if bytes >= PageSize {
			t.Errorf("diffs=%v: an LRC interval allocates %.0f B: a page-sized buffer is not being recycled", diffs, bytes)
		}
		if st := d.Stats(); st.TwinBytes < (warmCycles+200)*PageSize {
			t.Errorf("diffs=%v: %d twin bytes; the cycle did not twin every interval", diffs, st.TwinBytes)
		}
	}
}
