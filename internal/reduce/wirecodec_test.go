package reduce

import (
	"testing"

	"filaments/internal/rtnode/wiretest"
)

// TestWireVectors freezes the bytes of the two barrier messages
// (WIRE.lock tags 32–33), with and without LRC write notices.
func TestWireVectors(t *testing.T) {
	wiretest.Check(t, "filaments/internal/reduce", []wiretest.Vector{
		{Tag: 32, Value: arriveMsg{Epoch: 9, Round: 1, Value: 1, Has: true, Notices: []int32{4, 70}}, Hex: "201202000000000000f03f0102088c01"},
		{Tag: 33, Value: releaseMsg{Epoch: 9, Result: 0.5}, Hex: "2112000000000000e03f00"},
	})
}
