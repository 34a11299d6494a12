package udptrans

import (
	"encoding/binary"
	"sync"
)

// Wire format: | kind(1) | svc(2) | seq(4) | payload |. Both requests and
// replies carry the full header; a reply echoes the request's svc and seq so
// the requester can validate it against the pending call.
const (
	kindRequest = 0x01
	kindReply   = 0x02
	// kindEvent is an unreliable one-way datagram: no seq tracking, no
	// retransmission, no reply. Protocols layered above must tolerate loss
	// (the barrier release broadcast does, via arrive retransmission). The
	// svc and seq header fields are zero.
	kindEvent = 0x03
	// 0x04 is retired and must not be reassigned: earlier releases framed
	// several coalesced events under it, so a datagram carrying it is
	// dropped as an unknown kind rather than misparsed.
	headerLen = 7
)

// header is the decoded fixed prefix of every datagram.
type header struct {
	kind byte
	svc  uint16
	seq  uint32
}

// frameCap is the largest datagram an endpoint sends or receives; every
// pooled buffer holds this much.
const frameCap = headerLen + MaxPayload

// bufPool recycles full-size frame buffers across sends and receives. The
// pool stores *[]byte (a pooled []byte header would itself allocate), and
// every entry keeps its original frameCap backing array.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, frameCap)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if bp == nil || cap(*bp) < frameCap {
		return // foreign or shrunken buffer; let the GC have it
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// appendFrame appends a framed datagram (header then payload) to dst.
//
//dflint:hotpath
func appendFrame(dst []byte, h header, payload []byte) []byte {
	dst = append(dst, h.kind)
	dst = binary.BigEndian.AppendUint16(dst, h.svc)
	dst = binary.BigEndian.AppendUint32(dst, h.seq)
	return append(dst, payload...)
}

// encode builds a datagram from a header and payload in a fresh buffer
// (tests; the endpoint frames into pooled buffers via appendFrame).
func encode(h header, payload []byte) []byte {
	return appendFrame(make([]byte, 0, headerLen+len(payload)), h, payload)
}

// decode splits a received datagram into header and payload. The payload
// ALIASES b — the caller owns the receive buffer and must keep it alive
// (and unrecycled) until the payload has been consumed. ok is false for
// datagrams too short to carry a header or with an unknown kind.
//
//dflint:hotpath
func decode(b []byte) (h header, payload []byte, ok bool) {
	if len(b) < headerLen {
		return header{}, nil, false
	}
	h.kind = b[0]
	if h.kind != kindRequest && h.kind != kindReply && h.kind != kindEvent {
		return header{}, nil, false
	}
	h.svc = binary.BigEndian.Uint16(b[1:])
	h.seq = binary.BigEndian.Uint32(b[3:])
	return h, b[headerLen:], true
}
