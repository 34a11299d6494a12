package rtnode_test

import (
	"bytes"
	"net"
	"testing"

	"filaments/internal/cost"
	"filaments/internal/kernel"
	"filaments/internal/rtnode"
	"filaments/internal/udptrans"
)

// echoPair is two nodes whose node 0 answers every request on svcEcho
// with the request itself, so the reply aliases the receive buffer the
// transport is about to encode it into.
func echoPair(tb testing.TB, idempotent bool) (caller *rtnode.Node, tr *rtnode.Transport) {
	tb.Helper()
	model := cost.Default()
	var nodes [2]*rtnode.Node
	var trs [2]*rtnode.Transport
	var peers []*net.UDPAddr
	for i := range nodes {
		ep, err := udptrans.Listen("127.0.0.1:0", udptrans.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = rtnode.NewNode(kernel.NodeID(i), &model)
		trs[i] = rtnode.NewTransport(nodes[i], ep)
		peers = append(peers, ep.Addr())
	}
	tb.Cleanup(func() {
		for i, tr := range trs {
			tr.Close() //nolint:errcheck // test teardown
			nodes[i].Close()
			nodes[i].Wait()
		}
	})
	for _, tr := range trs {
		tr.SetPeers(peers)
	}
	trs[0].Register(svcEcho, kernel.Service{Name: "echo", Idempotent: idempotent, Category: kernel.CatData,
		Handler: func(_ kernel.NodeID, req any) (any, int, kernel.Verdict) { return req, 8, kernel.Reply }})
	return nodes[1], trs[1]
}

const svcEcho = 5

// A reply is serialised into the spare capacity of its request's receive
// buffer. It must come back intact when it aliases that very request,
// when it does not fit there (request and reply together exceed a frame),
// and from the reply cache of a non-idempotent service.
func TestReplyEncodedBesideItsRequest(t *testing.T) {
	caller, tr := echoPair(t, false)
	done := make(chan struct{})
	caller.Spawn("caller", func(th kernel.Thread) {
		defer close(done)
		for _, n := range []int{0, 8, 5000, 40000} {
			want := fuzzPayload{Raw: bytes.Repeat([]byte{byte(n)}, n), Name: "echo", N: int64(n)}
			if n == 0 {
				want.Raw = nil
			}
			for round := 0; round < 2; round++ {
				got, ok := tr.Call(th, 0, svcEcho, want, 8, kernel.CatData).(fuzzPayload)
				if !ok || !bytes.Equal(got.Raw, want.Raw) || got.Name != want.Name || got.N != want.N {
					t.Errorf("%d-byte echo, round %d: reply differs from the request", n, round)
				}
			}
		}
	})
	<-done
}

// BenchmarkTransportCall is the rtnode rung of the allocation ladder: one
// small request/reply round trip through Transport.Call, the node monitor,
// the codec and both endpoints.
func BenchmarkTransportCall(b *testing.B) {
	caller, tr := echoPair(b, true)
	done := make(chan struct{})
	caller.Spawn("caller", func(th kernel.Thread) {
		defer close(done)
		req := [][]float64{{1.5}}
		tr.Call(th, 0, svcEcho, req, 8, kernel.CatData)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Call(th, 0, svcEcho, req, 8, kernel.CatData)
		}
	})
	<-done
}
