package quadrature

import (
	"testing"

	"filaments/internal/rtnode/wiretest"
)

// TestWireVectors freezes the bytes of the bag-of-tasks work unit
// (WIRE.lock tag 44).
func TestWireVectors(t *testing.T) {
	wiretest.Check(t, "filaments/internal/apps/quadrature", []wiretest.Vector{
		{Tag: 44, Value: interval{A: -2, B: 0.5, Done: true}, Hex: "2c00000000000000c0000000000000e03f01"},
	})
}
