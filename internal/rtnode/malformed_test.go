package rtnode_test

import (
	"net"
	"testing"
	"time"

	"filaments/internal/cost"
	"filaments/internal/kernel"
	"filaments/internal/rtnode"
	"filaments/internal/udptrans"
)

// TestMalformedDatagramsAreDroppedAndCounted: a peer inside the cluster's
// address table sends bytes no codec accepts — garbage, a page message
// cut short, and a frame under the reserved tag 1 — once each as a
// request to a live service and once each as an event. The node must
// survive all six, count them in net.malformed, never hand one to a
// handler, and answer the next well-formed Call. Before DecodePayload the
// first of these panicked a udptrans worker and took the process down.
func TestMalformedDatagramsAreDroppedAndCounted(t *testing.T) {
	listen := func(opts udptrans.Options) *udptrans.Endpoint {
		ep, err := udptrans.Listen("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	epA, epB := listen(udptrans.Options{}), listen(udptrans.Options{})
	// Fire-once, so each malformed request reaches the service exactly
	// once and the counter can be asserted exactly.
	rogue := listen(udptrans.Options{MaxRetries: udptrans.NoRetry})
	defer rogue.Close()

	model := cost.Default()
	nodeA, nodeB := rtnode.NewNode(0, &model), rtnode.NewNode(1, &model)
	trA, trB := rtnode.NewTransport(nodeA, epA), rtnode.NewTransport(nodeB, epB)
	defer func() {
		trA.Close() //nolint:errcheck // test teardown
		trB.Close() //nolint:errcheck // test teardown
		for _, nd := range []*rtnode.Node{nodeA, nodeB} {
			nd.Close()
			nd.Wait()
		}
	}()
	peers := []*net.UDPAddr{epA.Addr(), epB.Addr(), rogue.Addr()}
	trA.SetPeers(peers)
	trB.SetPeers(peers)

	const svc = 5
	reached := false // a handler ran; guarded by node A's monitor
	trA.Register(svc, kernel.Service{Name: "echo", Idempotent: true, Category: kernel.CatData,
		Handler: func(_ kernel.NodeID, req any) (any, int, kernel.Verdict) {
			reached = true
			return req, 8, kernel.Reply
		}})
	trA.HandleRaw(func(kernel.NodeID, any) bool {
		reached = true
		return true
	})

	malformed := [][]byte{
		{0xff, 0xff, 0xff},       // an unterminated uvarint where the tag belongs
		{0x11, 0x06, 0x01},       // dsm.pageData (tag 17) cut off after GrantOwner
		{0x01, 0x02, 0xaa, 0xbb}, // reserved tag 1 with a length-prefixed blob
	}
	for _, b := range malformed {
		if _, err := rogue.Call(epA.Addr(), svc, b); err != udptrans.ErrTimeout {
			t.Fatalf("malformed request % x: got %v, want a timeout (dropped, never answered)", b, err)
		}
		// Lane 0's prefix is the single byte 0x00.
		if err := rogue.SendEvent(epA.Addr(), append([]byte{0x00}, b...)); err != nil {
			t.Fatal(err)
		}
	}
	counter := nodeA.Obs().Counter("net.malformed")
	for deadline := time.Now().Add(5 * time.Second); counter.Load() < 6; {
		if time.Now().After(deadline) {
			t.Fatalf("net.malformed = %d, want 6", counter.Load())
		}
		time.Sleep(time.Millisecond)
	}
	nodeA.WithLock(func() {
		if reached {
			t.Error("a malformed payload reached a handler")
		}
	})

	var reply any
	done := make(chan struct{})
	nodeB.Spawn("caller", func(th kernel.Thread) {
		defer close(done)
		reply = trB.Call(th, 0, svc, [][]float64{{1.5}}, 8, kernel.CatData)
	})
	<-done
	if g, ok := reply.([][]float64); !ok || len(g) != 1 || g[0][0] != 1.5 {
		t.Fatalf("well-formed Call after the malformed ones returned %#v", reply)
	}
	if n := counter.Load(); n != 6 {
		t.Errorf("net.malformed = %d, want exactly 6", n)
	}
}
