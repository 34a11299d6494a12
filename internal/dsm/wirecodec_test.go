package dsm

import (
	"testing"

	"filaments/internal/kernel"
	"filaments/internal/rtnode/wiretest"
)

// TestWireVectors freezes the bytes of the page protocol's five messages
// (WIRE.lock tags 16–20).
func TestWireVectors(t *testing.T) {
	wiretest.Check(t, "filaments/internal/dsm", []wiretest.Vector{
		{Tag: 16, Value: pageReq{Block: 5, Write: true, HaveVer: -1}, Hex: "100a0101"},
		{Tag: 17, Value: pageData{Block: 3, Data: []byte{0xde, 0xad}, GrantOwner: true, Copyset: []kernel.NodeID{1, 2}, Ver: 7},
			Hex: "110601000e02dead020204"},
		{Tag: 18, Value: redirect{Block: 9, Owner: 2}, Hex: "121204"},
		{Tag: 19, Value: invalReq{Block: 300}, Hex: "13d804"},
		{Tag: 20, Value: lrcFlush{Blocks: []int32{1, 4}, Diffs: [][]byte{{0xaa}, nil}}, Hex: "14020201aa0800"},
	})
}
