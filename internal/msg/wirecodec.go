package msg

import "filaments/internal/rtnode"

// Binary wire codec for the CG envelope (tag 40; see the tag map in
// rtnode/codec.go). Data is an interface, so the envelope recurses
// through EncodeAny/DecodeAny: the payload ([][]float64, the CG matrix
// shape, or quadrature's interval) nests its own tagged binary form, so
// every type a CG program ships needs a registered codec.
func init() {
	rtnode.RegisterWireCodec(wire{}, 40,
		func(e *rtnode.Enc, v any) {
			w := v.(wire)
			e.Varint(int64(w.Tag))
			e.Varint(int64(w.Size))
			rtnode.EncodeAny(e, w.Data)
		},
		func(d *rtnode.Dec) any {
			var w wire
			w.Tag = Tag(d.Varint())
			w.Size = int(d.Varint())
			w.Data = rtnode.DecodeAny(d)
			return w
		})
}
