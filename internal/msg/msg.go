// Package msg provides the explicit message passing used by the paper's
// coarse-grain (CG) comparison programs (§4): plain unreliable datagrams
// over the shared Ethernet, exactly as those programs used UDP. There is
// no retransmission — the paper notes that when a message was lost "the
// program hung and the test was aborted" — so CG runs assume a lossless
// network, while the DF programs tolerate loss through Packet.
package msg

import (
	"fmt"

	"filaments/internal/kernel"
	"filaments/internal/obs"
)

// Tag distinguishes message streams between the same pair of nodes.
type Tag int32

type wire struct {
	Tag  Tag
	Data any
	Size int
}

type key struct {
	src kernel.NodeID
	tag Tag
}

// Endpoint is one node's explicit-messaging port.
type Endpoint struct {
	node   kernel.Node
	tr     kernel.Transport
	queues map[key][]wire
	// waiter is the thread blocked in Recv for a given key (at most one).
	waiters map[key]kernel.Thread
	// anyFIFO records, per tag, the arrival order of sources, for RecvAny.
	anyFIFO    map[Tag][]kernel.NodeID
	anyWaiters map[Tag]kernel.Thread

	sent, received *obs.Counter
}

// New wires an endpoint into the transport's raw-datagram chain.
func New(node kernel.Node, tr kernel.Transport) *Endpoint {
	o := obs.Of(node)
	m := &Endpoint{
		node:       node,
		tr:         tr,
		sent:       o.Counter("msg.sent"),
		received:   o.Counter("msg.received"),
		queues:     make(map[key][]wire),
		waiters:    make(map[key]kernel.Thread),
		anyFIFO:    make(map[Tag][]kernel.NodeID),
		anyWaiters: make(map[Tag]kernel.Thread),
	}
	tr.HandleRaw(m.handle)
	return m
}

// Sent and Received report message counters. The counters are atomic, so
// the reads are safe from any goroutine.
func (m *Endpoint) Sent() int64     { return m.sent.Load() }
func (m *Endpoint) Received() int64 { return m.received.Load() }

// Send transmits payload to dst. Unreliable: a lost frame is lost.
func (m *Endpoint) Send(dst kernel.NodeID, tag Tag, payload any, size int) {
	m.sent.Inc()
	m.tr.Send(dst, wire{Tag: tag, Data: payload, Size: size}, size, kernel.CatData)
}

// Broadcast transmits payload to every other node in one frame (the CG
// matrix-multiplication program broadcasts the B matrix this way).
func (m *Endpoint) Broadcast(tag Tag, payload any, size int) {
	m.sent.Inc()
	m.tr.Send(kernel.Broadcast, wire{Tag: tag, Data: payload, Size: size}, size, kernel.CatData)
}

// Recv blocks the calling thread until a message with the given source and
// tag arrives, then returns its payload.
func (m *Endpoint) Recv(t kernel.Thread, src kernel.NodeID, tag Tag) any {
	k := key{src: src, tag: tag}
	for len(m.queues[k]) == 0 {
		if m.waiters[k] != nil {
			panic(fmt.Sprintf("msg: two receivers on node %d for src=%d tag=%d", m.node.ID(), src, tag))
		}
		m.waiters[k] = t
		t.Block()
	}
	q := m.queues[k]
	w := q[0]
	m.queues[k] = q[1:]
	m.received.Inc()
	return w.Data
}

// RecvAny blocks until a message with the given tag arrives from any
// source, returning the sender and payload in arrival order. Do not mix
// RecvAny and Recv on the same tag.
func (m *Endpoint) RecvAny(t kernel.Thread, tag Tag) (kernel.NodeID, any) {
	for len(m.anyFIFO[tag]) == 0 {
		if m.anyWaiters[tag] != nil {
			panic(fmt.Sprintf("msg: two RecvAny on node %d tag %d", m.node.ID(), tag))
		}
		m.anyWaiters[tag] = t
		t.Block()
	}
	src := m.anyFIFO[tag][0]
	m.anyFIFO[tag] = m.anyFIFO[tag][1:]
	k := key{src: src, tag: tag}
	q := m.queues[k]
	w := q[0]
	m.queues[k] = q[1:]
	m.received.Inc()
	return src, w.Data
}

// handle consumes raw datagrams carrying msg wires; runs in node context.
func (m *Endpoint) handle(from kernel.NodeID, payload any) bool {
	w, ok := payload.(wire)
	if !ok {
		return false
	}
	m.node.Charge(kernel.CatData, m.node.Model().RecvCost(w.Size))
	k := key{src: from, tag: w.Tag}
	//dflint:allow handleridem raw datagrams are never retransmitted (only RPC requests are), so each wire arrives at most once and FIFO growth mirrors sends one-to-one
	m.queues[k] = append(m.queues[k], w)
	//dflint:allow handleridem raw datagrams are never retransmitted (only RPC requests are), so each wire arrives at most once and FIFO growth mirrors sends one-to-one
	m.anyFIFO[w.Tag] = append(m.anyFIFO[w.Tag], from)
	if t := m.waiters[k]; t != nil {
		delete(m.waiters, k)
		m.node.Ready(t, true)
	} else if t := m.anyWaiters[w.Tag]; t != nil {
		delete(m.anyWaiters, w.Tag)
		m.node.Ready(t, true)
	}
	return true
}
