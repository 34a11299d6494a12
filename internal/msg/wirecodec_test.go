package msg

import (
	"testing"

	"filaments/internal/rtnode/wiretest"
)

// TestWireVectors freezes the bytes of the CG envelope (WIRE.lock tag
// 40) around a nested payload and around nil.
func TestWireVectors(t *testing.T) {
	wiretest.Check(t, "filaments/internal/msg", []wiretest.Vector{
		{Tag: 40, Value: wire{Tag: 3, Data: [][]float64{{1}}, Size: 8}, Hex: "280610080101000000000000f03f"},
		{Tag: 40, Value: wire{Tag: -1, Size: 0}, Hex: "28010000"},
	})
}
