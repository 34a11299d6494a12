// Package wiretest pins a package's wire codecs to frozen byte vectors.
// The codec tests used to compare against a second, self-describing
// encoder; with one codec left the reference is the bytes themselves, so
// a change to a tag, a field order or a width fails in the package that
// owns the type, next to the WIRE.lock row it contradicts.
package wiretest

import (
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"filaments/internal/rtnode"
)

// Vector is one frozen encoding: Value framed by rtnode.AppendPayload is
// exactly Hex, which opens with uvarint(Tag) — the tag WIRE.lock records
// for Value's type. Choose values that survive a round trip unchanged
// (nil, not empty, slices: the codec erases that distinction).
type Vector struct {
	Tag   uint16
	Value any
	Hex   string
}

// Check verifies every vector in both directions and fails if a type
// declared in pkgPath has a registered codec (rtnode.WireTypes) but no
// vector. pkgPath "" selects the unnamed builtin shapes.
func Check(t *testing.T, pkgPath string, vectors []Vector) {
	t.Helper()
	covered := make(map[reflect.Type]bool)
	for _, v := range vectors {
		typ := reflect.TypeOf(v.Value)
		covered[typ] = true
		got := rtnode.AppendPayload(nil, v.Value)
		if h := hex.EncodeToString(got); h != v.Hex {
			t.Errorf("%v: encodes as %s, frozen vector is %s", typ, h, v.Hex)
			continue
		}
		if tag, n := binary.Uvarint(got); n <= 0 || tag != uint64(v.Tag) {
			t.Errorf("%v: frame opens with tag %d, vector says %d", typ, tag, v.Tag)
		}
		back, ok := rtnode.DecodePayload(got)
		if !ok || !reflect.DeepEqual(back, v.Value) {
			t.Errorf("%v: decodes to %#v (ok=%v), want %#v", typ, back, ok, v.Value)
		}
	}
	for _, typ := range rtnode.WireTypes() {
		if typ.PkgPath() == pkgPath && !covered[typ] {
			t.Errorf("%v has a registered codec but no frozen vector", typ)
		}
	}
}
