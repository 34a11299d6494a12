// Package tagspace exercises the wire-tag namespace rule: no duplicate
// production tags, and every module struct that reaches the wire — as a
// Transport or msg.Endpoint payload, or as a handler reply — must have a
// registered binary codec.
package tagspace

import (
	"kernel"
	"rtnode"
)

type pingMsg struct{ N int64 }

type pongMsg struct{ N int64 }

type strayMsg struct{ S string }

type scratchMsg struct{ B []byte }

const (
	tagPing    = 70
	tagPong    = 71
	tagScratch = 0x7F00
)

func register() {
	rtnode.RegisterWireCodec(pingMsg{}, tagPing, encPing, decPing)
	rtnode.RegisterWireCodec(pongMsg{}, tagPing, encPong, decPong) // want "wire tag 70 is already registered for tagspace\.pingMsg"
	rtnode.RegisterWireCodec(pongMsg{}, tagPong, encPong, decPong)
	// At or above the test base tags are per-test scratch space: two
	// tests may claim the same number.
	rtnode.RegisterWireCodec(scratchMsg{}, tagScratch, encScratch, decScratch)
	rtnode.RegisterWireCodec(pingMsg{}, tagScratch, encPing, decPing)
}

func encPing(e *rtnode.Enc, v any) { e.Varint(v.(pingMsg).N) }
func decPing(d *rtnode.Dec) any    { return pingMsg{N: d.Varint()} }

func encPong(e *rtnode.Enc, v any) { e.Varint(v.(pongMsg).N) }
func decPong(d *rtnode.Dec) any    { return pongMsg{N: d.Varint()} }

func encScratch(e *rtnode.Enc, v any) { e.Bytes(v.(scratchMsg).B) }
func decScratch(d *rtnode.Dec) any    { return scratchMsg{B: d.Bytes()} }

func send(t kernel.Thread, tr kernel.Transport, dst kernel.NodeID) {
	tr.Send(dst, pingMsg{N: 1}, 8, 0)
	tr.Send(dst, strayMsg{S: "x"}, 8, 0)       // want "payload type tagspace\.strayMsg reaches the wire with no registered binary codec"
	tr.Call(t, dst, 1, strayMsg{S: "y"}, 8, 0) // want "payload type tagspace\.strayMsg reaches the wire with no registered binary codec"
	tr.RequestAsync(dst, 1, pongMsg{N: 2}, 8, 0, nil)
	// Non-struct and non-module payloads are outside the rule.
	tr.Send(dst, []byte("raw"), 3, 0)
	tr.Send(dst, 7, 1, 0)
	// Interface-typed payloads are checked where the concrete value was
	// made, not where it is forwarded.
	forward(tr, dst, strayMsg{S: "z"})
	//dflint:allow tagspace sim-only diagnostic payload, never crosses the UDP binding
	tr.Send(dst, strayMsg{S: "w"}, 8, 0)
}

func forward(tr kernel.Transport, dst kernel.NodeID, payload any) {
	tr.Send(dst, payload, 0, 0)
}

// endpoint has msg.Endpoint's sending surface: the payload sits one
// position later in Send than on a Transport.
type endpoint struct{}

func (endpoint) Send(dst kernel.NodeID, tag int32, payload any, size int) {}
func (endpoint) Broadcast(tag int32, payload any, size int)               {}

func cg(m endpoint, dst kernel.NodeID) {
	m.Send(dst, 1, pingMsg{N: 3}, 8)
	m.Send(dst, 1, strayMsg{S: "x"}, 8) // want "payload type tagspace\.strayMsg reaches the wire with no registered binary codec"
	m.Broadcast(1, strayMsg{S: "y"}, 8) // want "payload type tagspace\.strayMsg reaches the wire with no registered binary codec"
	m.Broadcast(1, [][]float64{{1}}, 8)
}

// Replies reach the wire too: pageData, redirect and stealReply never
// appear as a send argument, only as a handler's first result.
func handler(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	if from == 0 {
		return strayMsg{}, 0, kernel.Reply // want "handler reply type tagspace\.strayMsg reaches the wire with no registered binary codec"
	}
	if from == 1 {
		return nil, 0, kernel.Drop
	}
	return pongMsg{N: 4}, 8, kernel.Reply
}

var service = kernel.Service{
	Handler: func(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
		inner := func() (int, int, int) { return 1, 2, 3 } // not a handler: nested returns are skipped
		inner()
		return &strayMsg{}, 0, kernel.Reply // want "handler reply type tagspace\.strayMsg reaches the wire with no registered binary codec"
	},
}
