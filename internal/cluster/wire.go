package cluster

import (
	"filaments/internal/rtnode"
)

// Membership wire protocol.
//
// Join/Beat/Leave are reliable request/reply calls on the same udptrans
// endpoints that carry kernel traffic, registered under service ids
// above the lane space (rtnode.MaxLanes*rtnode.LaneStride = 0x1000), so
// a daemon needs exactly one socket for both roles. Payloads use the
// binary wire codec under tags 48–53 (see the tag map in
// rtnode/codec.go). The services face the open network — any host can
// send a datagram at them — so their handlers decode with
// rtnode.DecodePayload and drop what it rejects.

// Service ids for the membership services on the coordinator's endpoint.
const (
	SvcJoin  = 0xF0A0
	SvcBeat  = 0xF0A1
	SvcLeave = 0xF0A2
)

// JoinMsg announces a node to the coordinator. Addr is the address the
// node's kernel endpoint serves on — the membership identity.
type JoinMsg struct {
	Addr string
}

// JoinAck acknowledges a join with the resulting membership generation
// and the policy's beat deadline, so agents pace heartbeats from the
// coordinator's thresholds rather than guessing.
type JoinAck struct {
	Gen          uint64
	SuspectAfter int64 // Policy.SuspectAfter, ns; beat several times per
}

// BeatMsg is a heartbeat from a joined node.
type BeatMsg struct {
	Addr string
}

// BeatAck carries the membership generation and whether the coordinator
// still recognizes the sender. Known=false tells the agent to rejoin
// (the coordinator restarted, or condemned this node while it was
// partitioned away).
type BeatAck struct {
	Gen   uint64
	Known bool
}

// LeaveMsg deregisters a node voluntarily (clean shutdown).
type LeaveMsg struct {
	Addr string
}

// LeaveAck acknowledges a leave.
type LeaveAck struct {
	Gen uint64
}

func init() {
	rtnode.RegisterWireCodec(JoinMsg{}, 48,
		func(e *rtnode.Enc, v any) { e.String(v.(JoinMsg).Addr) },
		func(d *rtnode.Dec) any { return JoinMsg{Addr: d.String()} })
	rtnode.RegisterWireCodec(JoinAck{}, 49,
		func(e *rtnode.Enc, v any) {
			a := v.(JoinAck)
			e.Uvarint(a.Gen)
			e.Varint(a.SuspectAfter)
		},
		func(d *rtnode.Dec) any {
			var a JoinAck
			a.Gen = d.Uvarint()
			a.SuspectAfter = d.Varint()
			return a
		})
	rtnode.RegisterWireCodec(BeatMsg{}, 50,
		func(e *rtnode.Enc, v any) { e.String(v.(BeatMsg).Addr) },
		func(d *rtnode.Dec) any { return BeatMsg{Addr: d.String()} })
	rtnode.RegisterWireCodec(BeatAck{}, 51,
		func(e *rtnode.Enc, v any) {
			a := v.(BeatAck)
			e.Uvarint(a.Gen)
			e.Bool(a.Known)
		},
		func(d *rtnode.Dec) any {
			var a BeatAck
			a.Gen = d.Uvarint()
			a.Known = d.Bool()
			return a
		})
	rtnode.RegisterWireCodec(LeaveMsg{}, 52,
		func(e *rtnode.Enc, v any) { e.String(v.(LeaveMsg).Addr) },
		func(d *rtnode.Dec) any { return LeaveMsg{Addr: d.String()} })
	rtnode.RegisterWireCodec(LeaveAck{}, 53,
		func(e *rtnode.Enc, v any) { e.Uvarint(v.(LeaveAck).Gen) },
		func(d *rtnode.Dec) any { return LeaveAck{Gen: d.Uvarint()} })
}
