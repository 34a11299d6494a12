package filament

import (
	"testing"

	"filaments/internal/rtnode/wiretest"
)

// TestWireVectors freezes the bytes of the four fork/join messages
// (WIRE.lock tags 24–27).
func TestWireVectors(t *testing.T) {
	tk := task{Fn: 2, Args: Args{1, -1, 64, 0, 0, 300}, Origin: 3, JoinID: 17}
	wiretest.Check(t, "filaments/internal/filament", []wiretest.Vector{
		{Tag: 24, Value: forkMsg{T: tk}, Hex: "1804020180010000d8040622"},
		{Tag: 25, Value: resultMsg{JoinID: 17, Value: 0.5, Fn: 2, Sum: 1 << 40}, Hex: "1922000000000000e03f04808080808020"},
		{Tag: 26, Value: stealReply{Granted: true, T: tk}, Hex: "1a0104020180010000d8040622"},
		{Tag: 27, Value: doneMsg{Result: -2}, Hex: "1b00000000000000c0"},
	})
}
