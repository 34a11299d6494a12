// Package packet implements Packet, the paper's low-overhead reliable
// datagram protocol (§3) on top of the unreliable simulated Ethernet.
//
// Communication always occurs in request/reply pairs. Only request messages
// — which are small, 20 bytes or less — are buffered; a request is
// retransmitted until its reply arrives. Replies are never buffered: a
// retransmitted request is simply re-serviced and the reply regenerated
// from current state (for idempotent services) or replayed from a small
// per-sender cache (for the few non-idempotent ones).
//
// A service handler may also *drop* a request — returning no reply — which
// is the protocol's single recovery mechanism for mutual exclusion (a node
// in a critical section ignores messages that would modify critical data)
// and for the Mirage page time-window: the requester's retransmission
// carries the retry.
//
// Endpoint is the simulation binding of kernel.Transport; the real-time
// binding over UDP sockets is internal/rtnode.
package packet

import (
	"container/list"
	"fmt"

	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/sim"
	"filaments/internal/simnet"
	"filaments/internal/threads"
)

// ServiceID identifies a registered request handler (alias of
// kernel.ServiceID).
type ServiceID = kernel.ServiceID

// Verdict is a service handler's decision about a request (alias of
// kernel.Verdict).
type Verdict = kernel.Verdict

// Handler verdicts, re-exported from package kernel.
const (
	// Reply sends the handler's reply to the requester.
	Reply = kernel.Reply
	// Drop ignores the request; the requester will retransmit. Used by
	// critical sections, the Mirage window, and deferred barrier releases.
	Drop = kernel.Drop
)

// Service describes one request type (alias of kernel.Service).
type Service = kernel.Service

// Stats counts protocol events.
type Stats struct {
	RequestsSent    int64
	Retransmits     int64
	RepliesSent     int64
	RepliesReceived int64
	Dropped         int64 // requests dropped by handlers or critical sections
	DupSuppressed   int64 // duplicate non-idempotent requests answered from cache
	MaxRequestSize  int
}

// wire message types.
type wireRequest struct {
	Svc  ServiceID
	Seq  uint64
	Data any
	Size int
}

type wireReply struct {
	Seq  uint64
	Data any
	Size int
}

// retransmitTick is injected into the node's inbox when a retransmission
// timer fires, so the resend consumes node CPU like any other send.
type retransmitTick struct{ seq uint64 }

type pending struct {
	seq      uint64
	dst      simnet.NodeID
	req      wireRequest
	cat      threads.Category
	cb       func(reply any)
	timer    kernel.Timer
	attempts int
	expect   int // expected reply payload size, for the timeout
	done     bool
}

// Handle identifies an outstanding request; it allows local completion
// (e.g. a broadcast carried the answer) or cancellation. It implements
// kernel.Handle.
type Handle struct {
	ep *Endpoint
	p  *pending
}

// Complete finishes the request locally with the given reply value, as if a
// reply had arrived; the retransmission timer is canceled and the callback
// is invoked. It is a no-op if the request already completed.
func (h *Handle) Complete(reply any) { h.ep.complete(h.p, reply) }

// Cancel abandons the request without invoking the callback.
func (h *Handle) Cancel() {
	if h.p.done {
		return
	}
	h.p.done = true
	h.p.timer.Stop()
	delete(h.ep.pending, h.p.seq)
}

// Done reports whether the request has completed or been canceled.
func (h *Handle) Done() bool { return h.p.done }

const replyCacheSize = 64

type cacheKey struct {
	src simnet.NodeID
	seq uint64
}

// cacheEntry is one cached reply, held in the LRU list; replyCache maps
// its key to its list element.
type cacheEntry struct {
	key      cacheKey
	wr       wireReply
	lastSent sim.Time
}

// Endpoint is a node's Packet protocol instance. Create one per node with
// New; it installs itself as the node's message handler.
type Endpoint struct {
	node     *threads.Node
	services map[ServiceID]*Service
	nextSeq  uint64
	pending  map[uint64]*pending

	// replyCache holds recent replies of non-idempotent services so a
	// duplicate request (reply lost in transit) is answered identically
	// rather than re-executed. The paper bounds the analogous request list
	// by the messages between synchronization points; we bound the cache
	// by size, evicting the least recently used entry — an entry still
	// being replayed to a retransmitting requester stays resident.
	replyCache map[cacheKey]*list.Element
	cacheLRU   *list.List // front = most recently used; values are *cacheEntry
	cacheCap   int

	// RawHandler, if set, receives frames whose payload is not a Packet
	// message (e.g. broadcast barrier releases, CG message-passing). The
	// handler must charge its own receive cost. For multiple consumers use
	// HandleRaw instead.
	RawHandler func(f simnet.Frame)

	rawChain []func(from simnet.NodeID, payload any) bool

	obs *obs.Obs
	ctr counters
}

// counters caches the endpoint's registered transport counters in the
// node's registry. Updates are atomic; Stats() snapshots race-free. The
// names match internal/udptrans so sim and UDP metrics line up under
// cluster aggregation.
type counters struct {
	requestsSent, retransmits, repliesSent, repliesReceived *obs.Counter
	dropped, dupSuppressed, maxRequestSize                  *obs.Counter
}

// New creates the endpoint for node and installs it as the node's handler.
func New(node *threads.Node) *Endpoint {
	o := node.Obs()
	ep := &Endpoint{
		node:       node,
		services:   make(map[ServiceID]*Service),
		pending:    make(map[uint64]*pending),
		replyCache: make(map[cacheKey]*list.Element),
		cacheLRU:   list.New(),
		cacheCap:   replyCacheSize,
		obs:        o,
		ctr: counters{
			requestsSent:    o.Counter("net.requests_sent"),
			retransmits:     o.Counter("net.retransmits"),
			repliesSent:     o.Counter("net.replies_sent"),
			repliesReceived: o.Counter("net.replies_received"),
			dropped:         o.Counter("net.dropped"),
			dupSuppressed:   o.Counter("net.dup_suppressed"),
			maxRequestSize:  o.Counter("net.max_request_size"),
		},
	}
	node.SetHandler(ep.handle)
	return ep
}

// Node returns the endpoint's node.
func (ep *Endpoint) Node() *threads.Node { return ep.node }

// Stats returns a snapshot of protocol counters. The counters are
// atomic, so the snapshot is safe to take from any goroutine.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		RequestsSent:    ep.ctr.requestsSent.Load(),
		Retransmits:     ep.ctr.retransmits.Load(),
		RepliesSent:     ep.ctr.repliesSent.Load(),
		RepliesReceived: ep.ctr.repliesReceived.Load(),
		Dropped:         ep.ctr.dropped.Load(),
		DupSuppressed:   ep.ctr.dupSuppressed.Load(),
		MaxRequestSize:  int(ep.ctr.maxRequestSize.Load()),
	}
}

// Register installs a service. Registering the same ID twice panics.
func (ep *Endpoint) Register(id ServiceID, s Service) {
	if _, dup := ep.services[id]; dup {
		panic(fmt.Sprintf("packet: service %d registered twice", id))
	}
	ep.services[id] = &s
}

// RequestAsync sends a request to dst and arranges for cb to run (on this
// node's CPU) when the reply arrives. The request is buffered and
// retransmitted until then. It returns a Handle for local completion or
// cancellation. It must run on the node (thread or kernel context).
func (ep *Endpoint) RequestAsync(dst simnet.NodeID, svc ServiceID, req any, size int, cat threads.Category, cb func(reply any)) kernel.Handle {
	return ep.RequestSized(dst, svc, req, size, 0, cat, cb)
}

// RequestSized is RequestAsync with a hint about the expected reply payload
// size. Large replies (DSM pages, page groups) take long to transmit on a
// 10 Mbps medium, let alone a saturated one; the retransmission timeout is
// stretched accordingly so the requester does not re-request data that is
// still on the wire.
func (ep *Endpoint) RequestSized(dst simnet.NodeID, svc ServiceID, req any, size, expectedReply int, cat threads.Category, cb func(reply any)) kernel.Handle {
	ep.nextSeq++
	p := &pending{
		seq:    ep.nextSeq,
		dst:    dst,
		req:    wireRequest{Svc: svc, Seq: ep.nextSeq, Data: req, Size: size},
		cat:    cat,
		cb:     cb,
		expect: expectedReply,
	}
	ep.pending[p.seq] = p
	ep.ctr.requestsSent.Inc()
	ep.ctr.maxRequestSize.SetMax(int64(size))
	//dflint:allow tagspace the sim transport hands Go values over in memory; wireRequest never meets a serializer
	ep.node.Send(dst, p.req, size, cat)
	ep.armTimer(p)
	return &Handle{ep: ep, p: p}
}

// Call sends a request and blocks the calling server thread until the reply
// arrives, returning the reply payload.
func (ep *Endpoint) Call(t kernel.Thread, dst simnet.NodeID, svc ServiceID, req any, size int, cat threads.Category) any {
	var reply any
	done, waiting := false, false
	ep.RequestAsync(dst, svc, req, size, cat, func(r any) {
		reply = r
		done = true
		if waiting {
			ep.node.Ready(t, true)
		}
	})
	for !done {
		waiting = true
		t.Block()
		waiting = false
	}
	return reply
}

// Send transmits an unreliable one-way datagram through the node,
// charging send cost to cat (kernel.Transport).
func (ep *Endpoint) Send(dst simnet.NodeID, payload any, size int, cat threads.Category) {
	ep.node.Send(dst, payload, size, cat)
}

func (ep *Endpoint) armTimer(p *pending) {
	// Exponential backoff: a saturated network (e.g. the master serving
	// thousands of page requests in the matmul experiment) pushes reply
	// latency past the base timeout; without backoff, retransmissions
	// would feed the congestion they are reacting to.
	model := ep.node.Model()
	timeout := model.RetransmitTimeout + 6*model.TransmitTime(p.expect)
	for i := 0; i < p.attempts && i < 5; i++ {
		timeout *= 2
	}
	p.timer = ep.node.Schedule(timeout, func() {
		ep.node.Inject(retransmitTick{seq: p.seq})
	})
}

func (ep *Endpoint) complete(p *pending, reply any) {
	if p.done {
		return
	}
	p.done = true
	p.timer.Stop()
	delete(ep.pending, p.seq)
	if p.cb != nil {
		p.cb(reply)
	}
}

// handle processes every frame delivered to the node. It runs on the
// node's CPU (kernel or a preempting thread).
func (ep *Endpoint) handle(f simnet.Frame) {
	switch m := f.Payload.(type) {
	case wireRequest:
		ep.handleRequest(f.Src, m)
	case wireReply:
		ep.handleReply(m)
	case retransmitTick:
		ep.retransmit(m.seq)
	default:
		for _, h := range ep.rawChain {
			if h(f.Src, f.Payload) {
				return
			}
		}
		if ep.RawHandler != nil {
			ep.RawHandler(f)
		}
	}
}

// HandleRaw appends a consumer for non-Packet payloads (broadcasts,
// explicit message passing). Consumers are tried in registration order; the
// first one returning true consumes the payload. Handlers must charge their
// own receive cost.
func (ep *Endpoint) HandleRaw(h func(from simnet.NodeID, payload any) bool) {
	ep.rawChain = append(ep.rawChain, h)
}

func (ep *Endpoint) handleRequest(from simnet.NodeID, m wireRequest) {
	svc, ok := ep.services[m.Svc]
	if !ok {
		panic(fmt.Sprintf("packet: node %d: no service %d", ep.node.ID(), m.Svc))
	}
	model := ep.node.Model()
	ep.node.Charge(svc.Category, model.RecvCost(m.Size))

	if svc.ModifiesCritical && ep.node.InCritical() {
		ep.ctr.dropped.Inc()
		return
	}
	key := cacheKey{src: from, seq: m.Seq}
	if !svc.Idempotent {
		if el, dup := ep.replyCache[key]; dup {
			ep.ctr.dupSuppressed.Inc()
			ent := el.Value.(*cacheEntry)
			ep.cacheLRU.MoveToFront(el)
			// Resend the cached reply only if the previous copy has had
			// time to arrive; a retransmission racing a large reply that
			// is still on the (saturated) wire must not add another copy
			// — that feeds the very congestion that delayed it.
			now := ep.node.Now()
			guard := model.RetransmitTimeout/2 + 4*model.TransmitTime(ent.wr.Size)
			if now.Sub(ent.lastSent) < guard {
				return
			}
			ent.lastSent = now
			ep.ctr.repliesSent.Inc()
			//dflint:allow tagspace the sim transport hands Go values over in memory; wireReply never meets a serializer
			ep.node.Send(from, ent.wr, ent.wr.Size, svc.Category)
			return
		}
	}
	reply, size, v := svc.Handler(from, m.Data)
	if v == Drop {
		ep.ctr.dropped.Inc()
		return
	}
	if s, ok := reply.(kernel.Snapshotter); ok {
		// It travels and is cached by reference: detach it from live buffers.
		reply = s.Snapshot()
	}
	wr := wireReply{Seq: m.Seq, Data: reply, Size: size}
	if !svc.Idempotent {
		ep.cacheReply(key, wr)
	}
	ep.ctr.repliesSent.Inc()
	//dflint:allow tagspace the sim transport hands Go values over in memory; wireReply never meets a serializer
	ep.node.Send(from, wr, size, svc.Category)
}

// cacheReply inserts a reply at the most-recently-used end of the cache,
// evicting the least recently used entry when full. O(1) per insert.
func (ep *Endpoint) cacheReply(key cacheKey, wr wireReply) {
	if ep.cacheLRU.Len() >= ep.cacheCap {
		lru := ep.cacheLRU.Back()
		ep.cacheLRU.Remove(lru)
		delete(ep.replyCache, lru.Value.(*cacheEntry).key)
	}
	ent := &cacheEntry{key: key, wr: wr, lastSent: ep.node.Now()}
	ep.replyCache[key] = ep.cacheLRU.PushFront(ent)
}

func (ep *Endpoint) handleReply(m wireReply) {
	model := ep.node.Model()
	p, ok := ep.pending[m.Seq]
	if !ok {
		// Duplicate reply for an already-completed request; charge the
		// receive and move on.
		ep.node.Charge(threads.CatData, model.RecvCost(m.Size))
		return
	}
	ep.node.Charge(p.cat, model.RecvCost(m.Size))
	ep.ctr.repliesReceived.Inc()
	ep.complete(p, m.Data)
}

func (ep *Endpoint) retransmit(seq uint64) {
	p, ok := ep.pending[seq]
	if !ok || p.done {
		return
	}
	ep.ctr.retransmits.Inc()
	p.attempts++
	ep.obs.Trace(int64(ep.node.Now()), "net", "retransmit",
		obs.Arg{Key: "dst", Val: int64(p.dst)}, obs.Arg{Key: "svc", Val: int64(p.req.Svc)},
		obs.Arg{Key: "attempt", Val: int64(p.attempts)})
	//dflint:allow tagspace the sim transport hands Go values over in memory; wireRequest never meets a serializer
	ep.node.Send(p.dst, p.req, p.req.Size, p.cat)
	ep.armTimer(p)
}

// Outstanding reports how many requests await replies (the paper's
// invariant: never more than the messages between synchronization points).
func (ep *Endpoint) Outstanding() int { return len(ep.pending) }
