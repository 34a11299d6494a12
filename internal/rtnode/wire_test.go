package rtnode_test

import (
	"reflect"
	"testing"

	"filaments/internal/rtnode"
	"filaments/internal/rtnode/wiretest"

	// Imported for their RegisterWireCodec inits: every kernel-layer
	// package that puts payloads on the wire registers a codec, and this
	// test round-trips the lot.
	_ "filaments/internal/apps/quadrature"
	_ "filaments/internal/cluster"
	_ "filaments/internal/dsm"
	_ "filaments/internal/filament"
	_ "filaments/internal/msg"
	_ "filaments/internal/reduce"
)

// TestWireTypesRoundTrip frames the zero value of every registered wire
// type exactly as the real-time transport does and decodes it back. A
// codec that cannot carry its own type's zero value fails here instead
// of on the first UDP message.
func TestWireTypesRoundTrip(t *testing.T) {
	// Every protocol layer must have contributed.
	want := map[string]bool{
		"":                                   false, // the [][]float64 builtin
		"filaments/internal/dsm":             false,
		"filaments/internal/reduce":          false,
		"filaments/internal/filament":        false,
		"filaments/internal/msg":             false,
		"filaments/internal/apps/quadrature": false,
		"filaments/internal/cluster":         false,
	}
	for _, typ := range rtnode.WireTypes() {
		want[typ.PkgPath()] = true
		in := reflect.New(typ).Elem().Interface()
		out, ok := rtnode.DecodePayload(rtnode.AppendPayload(nil, in))
		if !ok {
			t.Errorf("%s: zero value does not decode", typ)
			continue
		}
		if got := reflect.TypeOf(out); got != typ {
			t.Errorf("round trip changed type: sent %s, got %s", typ, got)
		}
	}
	for pkg, seen := range want {
		if !seen {
			t.Errorf("package %q registered no wire codec", pkg)
		}
	}
}

// TestBuiltinWireVectors freezes the bytes of the shapes this package
// registers itself (WIRE.lock tag 8).
func TestBuiltinWireVectors(t *testing.T) {
	wiretest.Check(t, "", []wiretest.Vector{
		{Tag: 8, Value: [][]float64{{1, -2}, nil, {0.5}},
			Hex: "080302000000000000f03f00000000000000c00001000000000000e03f"},
	})
}
