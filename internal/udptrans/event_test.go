package udptrans

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestEventDropCounted: events discarded by a full worker queue must be
// visible — the Stats counter and the drop hook both fire once per loss.
// The seed code dropped them silently, which made lost barrier releases
// look like network loss instead of local backpressure.
func TestEventDropCounted(t *testing.T) {
	b, err := Listen("127.0.0.1:0", Options{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var hooked atomic.Int64
	b.SetEventDropHook(func() { hooked.Add(1) })
	release := make(chan struct{})
	var served atomic.Int64
	b.SetEventHandler(func(_ *net.UDPAddr, _ []byte) {
		served.Add(1)
		<-release // wedge the only worker: queue fills, later events drop
	})

	for i := 0; i < 64; i++ {
		if err := a.SendEvent(b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().EventsDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no events dropped despite a wedged 1-deep queue")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if d, h := b.Stats().EventsDropped, hooked.Load(); d != h {
		t.Fatalf("EventsDropped = %d but hook fired %d times", d, h)
	}
}

// TestDupSendClosedSocketSurfaced: the duplicate-injection path tolerates
// its own send failing (it is extra loss-recovery traffic), but a closed
// socket is different — every future send fails too, so it must surface
// and stop the caller's retry loop. The seed discarded the duplicate's
// error entirely. Closing the socket from inside the DupSend callback
// lands the failure exactly on the duplicate write.
func TestDupSendClosedSocketSurfaced(t *testing.T) {
	var a *Endpoint
	a, err := Listen("127.0.0.1:0", Options{DupSend: func(_ []byte) bool {
		a.conn.Close() // primary write already succeeded; the duplicate hits a closed socket
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	frame := appendFrame(nil, header{kind: kindEvent}, []byte("x"))
	if err := a.send(frame, b.Addr()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("send with closed-socket duplicate returned %v, want net.ErrClosed", err)
	}
}

// TestRetiredBatchKindDropped: kind 0x04 framed several coalesced events
// in earlier releases. An old peer's datagram must be counted as dropped
// and ignored whole — never handed to the event handler, whole or in
// parts — and the endpoint keeps serving.
func TestRetiredBatchKindDropped(t *testing.T) {
	ep, err := Listen("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	events := make(chan string, 4)
	ep.SetEventHandler(func(_ *net.UDPAddr, payload []byte) { events <- string(payload) })

	raw, err := net.DialUDP("udp", nil, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A well-formed old batch: two length-prefixed entries.
	old := encode(header{kind: 0x04}, []byte{1, 'a', 1, 'b'})
	if _, err := raw.Write(old); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ep.Stats().Dropped != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("Dropped = %d after a kind-0x04 datagram, want 1", ep.Stats().Dropped)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := raw.Write(encode(header{kind: kindEvent}, []byte("live"))); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-events:
		if got != "live" {
			t.Fatalf("event handler saw %q from the retired kind", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("endpoint stopped delivering events after a kind-0x04 datagram")
	}
}
