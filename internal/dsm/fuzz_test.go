package dsm

import (
	"bytes"
	"reflect"
	"testing"

	"filaments/internal/rtnode"
)

// FuzzLRCFlushRoundTrip frames an LRC release flush (wire tag 20)
// exactly as the transport does and asserts it decodes to the original
// value (same discipline as rtnode's FuzzWireRoundTrip; arbitrary bytes
// are FuzzLRCFlushDecode's job). lrcFlush is the one page-protocol payload with a
// nested length-prefixed sequence (per-block diff blobs), which is
// exactly where count/width bugs hide. Seeds cover the empty flush, a
// single block, shared diff tails, and counts past the single-byte
// uvarint boundary; they run on every plain `go test`.
func FuzzLRCFlushRoundTrip(f *testing.F) {
	f.Add(uint8(0), int64(0), []byte{})
	f.Add(uint8(1), int64(7), []byte{0xde, 0xad})
	f.Add(uint8(5), int64(-3), []byte("diff bytes spanning several blocks"))
	f.Add(uint8(200), int64(1)<<40, bytes.Repeat([]byte{0xaa}, 300))
	f.Fuzz(func(t *testing.T, nBlocks uint8, seed int64, diffs []byte) {
		var in lrcFlush
		for i := 0; i < int(nBlocks); i++ {
			in.Blocks = append(in.Blocks, int32(seed>>(uint(i)%48))+int32(i))
			lo := 0
			if len(diffs) > 0 {
				lo = (i * 7) % len(diffs)
			}
			in.Diffs = append(in.Diffs, diffs[lo:])
		}
		out, ok := rtnode.DecodePayload(rtnode.AppendPayload(nil, in))
		got, isFlush := out.(lrcFlush)
		if !ok || !isFlush {
			t.Fatalf("round trip changed type: sent %T, got %T (ok=%v)", in, out, ok)
		}
		if !reflect.DeepEqual(normalizeFlush(got), normalizeFlush(in)) {
			t.Fatalf("round trip changed value:\n sent %#v\n got  %#v", in, got)
		}
	})
}

// FuzzLRCFlushDecode feeds raw bytes straight into the tag-20 decoder:
// it must reject or accept without panicking, and anything it accepts must
// re-encode and re-decode to the same value, so a lenient decode can't
// smuggle an unencodable state into serveFlush.
func FuzzLRCFlushDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x02, 0x01, 0xff})        // one block, one diff byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})  // bogus huge count
	f.Add(rtnode.MarshalPayload(lrcFlush{})[1:]) // valid empty body
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := rtnode.Dec{B: raw}
		var m lrcFlush
		decLRCFlushInto(&d, &m)
		if d.Bad {
			return
		}
		var e rtnode.Enc
		encLRCFlush(&e, &m)
		d2 := rtnode.Dec{B: e.B}
		var m2 lrcFlush
		decLRCFlushInto(&d2, &m2)
		if d2.Bad {
			t.Fatalf("re-encoding an accepted flush produced a rejected buffer: %#v", m)
		}
		if !reflect.DeepEqual(normalizeFlush(m2), normalizeFlush(m)) {
			t.Fatalf("decode/encode/decode not idempotent:\n first  %#v\n second %#v", m, m2)
		}
	})
}

// normalizeFlush maps zero-length slices to nil at every level, since
// the codec gives nil-versus-empty no wire meaning.
func normalizeFlush(m lrcFlush) lrcFlush {
	if len(m.Blocks) == 0 {
		m.Blocks = nil
	}
	if len(m.Diffs) == 0 {
		m.Diffs = nil
	}
	for i, d := range m.Diffs {
		if len(d) == 0 {
			m.Diffs[i] = nil
		}
	}
	return m
}
