package rtnode_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"filaments/internal/rtnode"
)

// fuzzPayload exercises the shapes kernel payloads actually use on the
// wire: a nested float64 matrix (page data, fork/join results), a raw
// byte slice, a string, and a scalar.
type fuzzPayload struct {
	Grid [][]float64
	Raw  []byte
	Name string
	N    int64
}

// fuzzUncoded deliberately has no codec: encoding it is a programmer
// error the codec must report, not paper over.
type fuzzUncoded struct {
	Label string
	Vals  []float64
}

func init() {
	rtnode.RegisterWireCodec(fuzzPayload{}, rtnode.TagTestBase,
		func(e *rtnode.Enc, v any) {
			p := v.(fuzzPayload)
			e.Uvarint(uint64(len(p.Grid)))
			for _, row := range p.Grid {
				e.Uvarint(uint64(len(row)))
				for _, f := range row {
					e.F64(f)
				}
			}
			e.Bytes(p.Raw)
			e.String(p.Name)
			e.Varint(p.N)
		},
		func(d *rtnode.Dec) any {
			var p fuzzPayload
			n := d.Uvarint()
			if n > uint64(d.Remaining()) {
				d.Fail()
				return p
			}
			if n > 0 {
				p.Grid = make([][]float64, n)
				for i := range p.Grid {
					m := d.Uvarint()
					if m*8 > uint64(d.Remaining()) {
						d.Fail()
						return p
					}
					if m == 0 {
						continue
					}
					row := make([]float64, m)
					for j := range row {
						row[j] = d.F64()
					}
					p.Grid[i] = row
				}
			}
			p.Raw = d.Bytes()
			p.Name = d.String()
			p.N = d.Varint()
			return p
		})
}

// FuzzWireRoundTrip frames a payload exactly as the transport does and
// asserts it decodes to the original value; it then feeds the raw fuzz
// bytes to the decoder as a datagram body, which must never panic and —
// when some codec accepts them — must decode idempotently (re-encoding
// the decoded value and decoding again reproduces the same bytes). The
// seeds cover the edge shapes that bite hand-rolled framing (zero-length
// payloads, empty inner rows, negative and extreme scalars) and run on
// every plain `go test`, so CI exercises the corpus without a fuzzing
// engine.
//
// The codec does not distinguish empty slices from nil, so the
// comparison normalizes zero-length slices on both sides. Kernel code
// must therefore never give nil-versus-empty a protocol meaning — a
// contract this fuzz target pins down.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{}, "", int64(0))
	f.Add(uint8(3), uint8(4), []byte{1, 2, 3, 4, 5}, "jacobi", int64(-1))
	f.Add(uint8(1), uint8(0), []byte{0xff}, "zero-length rows", int64(1)<<62)
	f.Add(uint8(16), uint8(16), []byte("page"), "full page", int64(4096))
	f.Fuzz(func(t *testing.T, rows, cols uint8, raw []byte, name string, n int64) {
		grid := make([][]float64, int(rows%32))
		for i := range grid {
			row := make([]float64, int(cols%32))
			for j := range row {
				var b byte
				if len(raw) > 0 {
					b = raw[(i*len(row)+j)%len(raw)]
				}
				row[j] = float64(int(b)-128) / 3
			}
			grid[i] = row
		}
		in := fuzzPayload{Grid: grid, Raw: raw, Name: name, N: n}

		out, ok := rtnode.DecodePayload(rtnode.AppendPayload(nil, in))
		got, isPayload := out.(fuzzPayload)
		if !ok || !isPayload {
			t.Fatalf("round trip changed type: sent %T, got %T (ok=%v)", in, out, ok)
		}
		if !reflect.DeepEqual(normalize(got), normalize(in)) {
			t.Fatalf("round trip changed value:\n sent %#v\n got  %#v", in, got)
		}

		v, ok := rtnode.DecodePayload(raw)
		if !ok {
			return // rejected, as most arbitrary bytes must be
		}
		canon := rtnode.AppendPayload(nil, v)
		again, ok := rtnode.DecodePayload(canon)
		if !ok {
			t.Fatalf("re-encoding accepted bytes %x gave undecodable %x", raw, canon)
		}
		if b := rtnode.AppendPayload(nil, again); !bytes.Equal(b, canon) {
			t.Fatalf("decode is not idempotent for %x:\n first  %x\n second %x", raw, canon, b)
		}
	})
}

// TestUnregisteredPayloadPanics pins what replaced the self-describing
// fallback: a type with no codec panics at encode, naming the type and
// the fix; the fallback's tag 1 stays reserved, so a frame carrying it is
// malformed and no codec can claim it.
func TestUnregisteredPayloadPanics(t *testing.T) {
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "rtnode_test.fuzzUncoded") || !strings.Contains(msg, "add a RegisterWireCodec") {
				t.Errorf("encoding an uncoded type panicked with %q; want the type name and the fix", msg)
			}
		}()
		rtnode.AppendPayload(nil, fuzzUncoded{Label: "unregistered", Vals: []float64{1.5}})
	}()

	if v, ok := rtnode.DecodePayload([]byte{0x01, 0x00}); ok {
		t.Errorf("a tag-1 frame decoded to %#v; tag 1 is reserved", v)
	}

	defer func() {
		if recover() == nil {
			t.Error("RegisterWireCodec accepted the reserved tag 1")
		}
	}()
	rtnode.RegisterWireCodec(fuzzUncoded{}, 1, func(*rtnode.Enc, any) {}, func(*rtnode.Dec) any { return nil })
}

// TestNilPayloadFraming pins the framing conventions around nil: a nil
// payload is zero bytes on the wire, and decodes back to nil.
func TestNilPayloadFraming(t *testing.T) {
	if b := rtnode.MarshalPayload(nil); len(b) != 0 {
		t.Fatalf("nil payload framed as %d bytes, want 0", len(b))
	}
	if v := rtnode.UnmarshalPayload(nil); v != nil {
		t.Fatalf("empty payload decoded to %#v, want nil", v)
	}
}

// normalize maps zero-length slices to nil at every level, since the
// codec erases that distinction.
func normalize(p fuzzPayload) fuzzPayload {
	if len(p.Raw) == 0 {
		p.Raw = nil
	}
	if len(p.Grid) == 0 {
		p.Grid = nil
	}
	for i, row := range p.Grid {
		if len(row) == 0 {
			p.Grid[i] = nil
		}
	}
	return p
}
