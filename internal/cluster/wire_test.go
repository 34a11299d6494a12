package cluster

import (
	"testing"

	"filaments/internal/rtnode/wiretest"
)

// TestWireVectors freezes the bytes of the six membership messages
// (WIRE.lock tags 48–53).
func TestWireVectors(t *testing.T) {
	wiretest.Check(t, "filaments/internal/cluster", []wiretest.Vector{
		{Tag: 48, Value: JoinMsg{Addr: "n1:9"}, Hex: "30046e313a39"},
		{Tag: 49, Value: JoinAck{Gen: 7, SuspectAfter: 1500}, Hex: "3107b817"},
		{Tag: 50, Value: BeatMsg{Addr: "n1:9"}, Hex: "32046e313a39"},
		{Tag: 51, Value: BeatAck{Gen: 300, Known: true}, Hex: "33ac0201"},
		{Tag: 52, Value: LeaveMsg{Addr: "n1:9"}, Hex: "34046e313a39"},
		{Tag: 53, Value: LeaveAck{Gen: 8}, Hex: "3508"},
	})
}
