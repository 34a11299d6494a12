package rtnode

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/udptrans"
)

// Transport implements kernel.Transport over a udptrans UDP endpoint.
// Payloads cross the wire in the binary framing of codec.go; the kernel
// layers register a codec for each of their wire structs in their init
// functions.
//
// Reliability division of labor: udptrans already provides retransmission
// with capped backoff, duplicate coalescing, and reply caching — the same
// Packet protocol the simulation binding implements — so this adapter only
// translates between kernel types and bytes, bridges handlers into node
// context, and keeps requests alive across udptrans retry-budget
// exhaustion (the kernel contract is "retransmitted until answered",
// matching the simulated Packet's unbounded persistence).
type Transport struct {
	node *Node
	ep   *udptrans.Endpoint
	mux  *EventMux
	lane uint16

	// lanePrefix is uvarint(lane), prepended to every outgoing event so
	// the receiving EventMux can route it (mux.go).
	lanePrefix []byte

	peers []*net.UDPAddr                   // indexed by NodeID
	ids   map[netip.AddrPort]kernel.NodeID // reverse: observed source address → id
	raw   []func(from kernel.NodeID, payload any) bool

	svcs []uint16 // wire service ids registered on ep, for Detach

	// malformed counts inbound requests and events whose payload no codec
	// accepted; they are dropped, never trusted (net.malformed).
	malformed *obs.Counter

	outstanding int // guarded by node.mu
	inflight    sync.WaitGroup
}

// NewTransport wraps ep as node's kernel.Transport on lane 0, creating
// the endpoint's EventMux — the single-run form, where the endpoint
// lives exactly as long as the transport. Peers must be installed with
// SetPeers before traffic flows.
func NewTransport(node *Node, ep *udptrans.Endpoint) *Transport {
	return NewTransportOn(NewEventMux(ep), node, 0)
}

// NewTransportOn wraps the mux's endpoint as node's kernel.Transport on
// the given lane — the run-many form: the mux (and its endpoint) outlive
// the transport, which registers its services under lane-offset wire ids
// and tears them back down in Detach. Peers must be installed with
// SetPeers before traffic flows.
func NewTransportOn(mux *EventMux, node *Node, lane uint16) *Transport {
	if lane >= MaxLanes {
		panic(fmt.Sprintf("rtnode: lane %d out of range (max %d)", lane, MaxLanes-1))
	}
	tr := &Transport{
		node:       node,
		ep:         mux.Endpoint(),
		mux:        mux,
		lane:       lane,
		lanePrefix: binary.AppendUvarint(nil, uint64(lane)),
		ids:        make(map[netip.AddrPort]kernel.NodeID),
		malformed:  node.Obs().Counter("net.malformed"),
	}
	mux.attach(lane, tr)
	return tr
}

// traceRetransmit surfaces a transport retransmission in the node's
// trace. Now() and the trace sink are goroutine-safe, so this may run on
// any caller goroutine (it is invoked from the endpoint's retry timer
// via the mux).
func (tr *Transport) traceRetransmit(svc uint16, attempt int) {
	n := tr.node
	n.Obs().Trace(int64(n.Now()), "net", "retransmit",
		obs.Arg{Key: "svc", Val: int64(svc)}, obs.Arg{Key: "attempt", Val: int64(attempt)})
}

// traceEventDrop surfaces a dropped one-way datagram: an event shed by a
// full worker queue (a barrier release, typically) delays whoever waited
// on it by a retransmission round-trip; make that visible in the trace
// instead of silent.
func (tr *Transport) traceEventDrop() {
	n := tr.node
	n.Obs().Trace(int64(n.Now()), "net", "event_dropped")
}

// SetPeers installs the cluster address table: peers[i] is node i's
// endpoint address (including this node's own).
func (tr *Transport) SetPeers(peers []*net.UDPAddr) {
	tr.peers = peers
	for i, p := range peers {
		tr.ids[addrKey(p)] = kernel.NodeID(i)
	}
}

// Endpoint returns the underlying UDP endpoint (stats, address).
func (tr *Transport) Endpoint() *udptrans.Endpoint { return tr.ep }

// Close shuts the transport down: the endpoint closes (failing pending
// calls), and every async request goroutine drains. The single-run form
// of teardown — a run-many endpoint uses Detach instead and closes the
// endpoint only once, at daemon shutdown.
func (tr *Transport) Close() error {
	err := tr.ep.Close()
	tr.inflight.Wait()
	return err
}

// Detach tears this transport off its endpoint without closing the
// socket: the lane detaches from the mux (late events for it are
// dropped — they are unreliable by contract), the lane's services
// unregister, and async request goroutines drain. The caller must have
// reached quiescence first — every thread past its final synchronization
// point and Outstanding()==0 — because an unregistered service silently
// ignores requests, so a peer still retrying against it would spin
// forever. Must be called outside node context.
func (tr *Transport) Detach() {
	tr.mux.detach(tr.lane)
	for _, id := range tr.svcs {
		tr.ep.Unregister(id)
	}
	tr.inflight.Wait()
}

// wireSvc maps a lane-relative kernel service id to its wire service id.
func (tr *Transport) wireSvc(id kernel.ServiceID) uint16 {
	if id < 0 || int(id) >= LaneStride {
		panic(fmt.Sprintf("rtnode: kernel service id %d outside lane stride %d", id, LaneStride))
	}
	return uint16(id) + tr.lane*LaneStride
}

// addrKey is a's comparable form, unmapped so a peer looks the same
// whichever socket family reported it.
func addrKey(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func (tr *Transport) idOf(addr *net.UDPAddr) (kernel.NodeID, bool) {
	id, ok := tr.ids[addrKey(addr)]
	return id, ok
}

// payloadPool recycles encode buffers on the request/event send path. The
// pool warms up to the largest payload the run ships (a DSM block), after
// which sends stop allocating.
var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// encodePooled frames v behind prefix in a pooled buffer, which the caller
// hands to releasePayload once the bytes are no longer referenced. The
// udptrans send paths copy payloads into frames synchronously, so the
// release follows the send call.
func encodePooled(prefix []byte, v any) *[]byte {
	bp := payloadPool.Get().(*[]byte)
	*bp = AppendPayload(append((*bp)[:0], prefix...), v)
	return bp
}

func releasePayload(bp *[]byte) {
	*bp = (*bp)[:0]
	payloadPool.Put(bp)
}

// marshal encodes a request payload into a pooled buffer. nil is an empty
// payload with no buffer (bp is nil).
func marshal(v any) (data []byte, bp *[]byte) {
	if v == nil {
		return nil, nil
	}
	bp = encodePooled(nil, v)
	return *bp, bp
}

// binding is one kernel service as the UDP endpoint calls it.
type binding struct {
	tr *Transport
	s  kernel.Service
}

// Register installs a kernel service on the UDP endpoint (binding.serve).
func (tr *Transport) Register(id kernel.ServiceID, s kernel.Service) {
	wid := tr.wireSvc(id)
	tr.svcs = append(tr.svcs, wid)
	b := &binding{tr: tr, s: s}
	tr.ep.Register(wid, udptrans.Service{Idempotent: s.Idempotent, Handler: b.serve})
}

// serve decodes the payload, enters node context, charges receive and
// send costs to the ledger, and maps kernel.Drop to a udptrans drop (the
// requester's retransmission recovers, as in the paper). A request whose
// payload does not decode is dropped the same way and counted.
//
//dflint:hotpath
func (b *binding) serve(from *net.UDPAddr, req []byte) ([]byte, bool) {
	tr, n := b.tr, b.tr.node
	src, known := tr.idOf(from)
	if !known {
		return nil, true // stray datagram from outside the cluster
	}
	// The decoded payload may alias req's receive buffer; the buffer
	// stays alive until this handler returns, and the handler runs to
	// completion under the node monitor.
	payload, ok := DecodePayload(req)
	if !ok {
		tr.malformed.Inc()
		return nil, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, true
	}
	n.acct[b.s.Category] += n.model.RecvCost(len(req))
	reply, size, v := b.s.Handler(src, payload)
	if v == kernel.Drop {
		return nil, true
	}
	n.acct[b.s.Category] += n.model.SendCost(size)
	// The reply may alias the handler's own buffers (kernel.Service), so it
	// is serialised before the monitor is released — into the unused tail
	// of the request's receive buffer, which udptrans recycles only after
	// it has framed and cached the reply. Writing past len(req) leaves the
	// request, which the reply may also alias, intact.
	return AppendPayload(req[len(req):], reply), false
}

// call runs one reliable request to completion. The endpoint must carry an
// effectively unbounded retry budget (the bindings configure one): the
// kernel contract is "retransmitted until answered", and the
// retransmissions must reuse the request's sequence number so the
// receiver's reply cache absorbs duplicates. Re-issuing a timed-out call
// as a fresh request would re-execute non-idempotent handlers — a steal
// grant whose reply datagram was dropped would dequeue a second filament
// and strand the first. ok is false on endpoint close or cancellation.
func (tr *Transport) call(ctx context.Context, dst *net.UDPAddr, svc uint16, data []byte) ([]byte, bool) {
	reply, err := tr.ep.CallContext(ctx, dst, svc, data)
	if err != nil {
		return nil, false
	}
	return reply, true
}

// callBuffered is call without the reply copy: the reply aliases a pooled
// buffer and the caller must invoke release (when non-nil) after the
// reply has been consumed.
func (tr *Transport) callBuffered(ctx context.Context, dst *net.UDPAddr, svc uint16, data []byte) ([]byte, func(), bool) {
	reply, release, err := tr.ep.CallBuffered(ctx, dst, svc, data)
	if err != nil {
		return nil, nil, false
	}
	return reply, release, true
}

// Call issues a blocking request from thread t. The node monitor is
// released while the call is in flight — the calling thread is blocked,
// exactly as in the simulation, and other threads and handlers run.
func (tr *Transport) Call(t kernel.Thread, dst kernel.NodeID, svc kernel.ServiceID, req any, size int, cat kernel.Category) any {
	n := tr.node
	n.acct[cat] += n.model.SendCost(size)
	tr.outstanding++
	data, bp := marshal(req)
	addr := tr.peers[dst]
	wid := tr.wireSvc(svc)
	n.mu.Unlock()
	reply, ok := tr.call(context.Background(), addr, wid, data)
	if bp != nil {
		releasePayload(bp)
	}
	n.mu.Lock()
	tr.outstanding--
	if !ok {
		return nil // endpoint closed mid-run (shutdown)
	}
	n.acct[cat] += n.model.RecvCost(len(reply))
	// CallContext returned an owned copy of the reply, so the decoded
	// value (which may alias it) is safe for the calling thread to keep.
	return UnmarshalPayload(reply)
}

// handle tracks one asynchronous request. Its fields are guarded by the
// node monitor; Complete/Cancel/Done must be called in node context.
type handle struct {
	cb     func(any)
	done   bool
	cancel context.CancelFunc
}

func (h *handle) Complete(reply any) {
	if h.done {
		return
	}
	h.done = true
	h.cancel()
	h.cb(reply)
}

func (h *handle) Cancel() {
	if h.done {
		return
	}
	h.done = true
	h.cancel()
}

func (h *handle) Done() bool { return h.done }

// RequestAsync issues a reliable request serviced by a dedicated
// goroutine; the callback runs in node context when the reply arrives.
func (tr *Transport) RequestAsync(dst kernel.NodeID, svc kernel.ServiceID, req any, size int, cat kernel.Category, cb func(reply any)) kernel.Handle {
	n := tr.node
	ctx, cancel := context.WithCancel(context.Background())
	h := &handle{cb: cb, cancel: cancel}
	n.acct[cat] += n.model.SendCost(size)
	tr.outstanding++
	data, bp := marshal(req)
	addr := tr.peers[dst]
	wid := tr.wireSvc(svc)
	tr.inflight.Add(1)
	go func() {
		defer tr.inflight.Done()
		// The buffered call avoids copying the reply (a page, on the DSM
		// path): the decoded payload aliases the pooled receive buffer,
		// which is released only after the callback — run to completion
		// under the node monitor — returns. Callbacks that retain payload
		// bytes copy them (the kernel contract; DSM install does).
		reply, relReply, ok := tr.callBuffered(ctx, addr, wid, data)
		if bp != nil {
			releasePayload(bp)
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		defer func() {
			if relReply != nil {
				relReply()
			}
		}()
		tr.outstanding--
		if h.done {
			return // completed out of band or canceled
		}
		h.done = true
		if !ok {
			return // endpoint closed mid-run
		}
		n.acct[cat] += n.model.RecvCost(len(reply))
		cb(UnmarshalPayload(reply))
	}()
	return h
}

// RequestSized is RequestAsync; the expected reply size only stretches
// timeouts in the simulation (real retransmission keeps retrying anyway).
func (tr *Transport) RequestSized(dst kernel.NodeID, svc kernel.ServiceID, req any, size, expectedReply int, cat kernel.Category, cb func(reply any)) kernel.Handle {
	return tr.RequestAsync(dst, svc, req, size, cat, cb)
}

// Send transmits an unreliable one-way datagram; Broadcast fans out to
// every peer but this node. Loss is tolerated by the protocols above
// (e.g. a lost barrier release is recovered by arrive retransmission).
func (tr *Transport) Send(dst kernel.NodeID, payload any, size int, cat kernel.Category) {
	n := tr.node
	n.acct[cat] += n.model.SendCost(size)
	// The lane prefix lets the receiving mux route the event; a nil
	// payload is the bare prefix (the remainder decodes back to nil).
	bp := encodePooled(tr.lanePrefix, payload)
	data := *bp
	// SendEvent copies the payload into its frame before returning, so the
	// pooled encode buffer can be released right after.
	if dst == kernel.Broadcast {
		for i, p := range tr.peers {
			if kernel.NodeID(i) == n.id {
				continue
			}
			tr.ep.SendEvent(p, data) //nolint:errcheck // unreliable by contract
		}
	} else {
		tr.ep.SendEvent(tr.peers[dst], data) //nolint:errcheck // unreliable by contract
	}
	releasePayload(bp)
}

// HandleRaw appends a one-way datagram handler. Registration happens
// during setup, before traffic flows.
func (tr *Transport) HandleRaw(h func(from kernel.NodeID, payload any) bool) {
	tr.raw = append(tr.raw, h)
}

// handleEvent delivers a one-way datagram through the raw handler chain in
// node context; one whose payload does not decode is discarded and
// counted. It runs on the endpoint's worker pool.
func (tr *Transport) handleEvent(from *net.UDPAddr, b []byte) {
	src, known := tr.idOf(from)
	if !known {
		return
	}
	// The decoded payload may alias b's pooled receive buffer, which the
	// endpoint keeps alive until this handler returns; the raw chain runs
	// to completion inside it.
	payload, ok := DecodePayload(b)
	if !ok {
		tr.malformed.Inc()
		return
	}
	n := tr.node
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	for _, h := range tr.raw {
		if h(src, payload) {
			return
		}
	}
}

// Outstanding returns the number of requests in flight. Must be called in
// node context.
func (tr *Transport) Outstanding() int { return tr.outstanding }
