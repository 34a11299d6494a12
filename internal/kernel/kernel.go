// Package kernel defines the seam between the DF kernel layers (DSM,
// reductions, filaments — the paper's Figure 1) and the machinery that
// hosts them. The kernel layers are written against three small
// interfaces:
//
//   - Transport: a reliable request/reply endpoint with service
//     registration plus unreliable one-way sends, the contract Packet
//     provides (paper §2.2).
//   - Clock: time and timers, virtual or wall.
//   - Executor: node-local threads — spawn, block, ready — and CPU cost
//     accounting, whether threads are simulator procs on one virtual CPU
//     or real goroutines.
//
// Two bindings exist: the deterministic simulation
// (internal/threads + internal/packet on internal/simnet), which carries
// every experiment in EXPERIMENTS.md, and the real-time binding
// (internal/rtnode on internal/udptrans), which runs the same kernel
// code over loopback UDP sockets in real goroutines — in one process or
// several.
//
// Time and Duration are aliases of the simulator's nanosecond types:
// they are plain int64 nanosecond counts with no behavior tied to the
// event loop, and reusing them keeps the two bindings' cost ledgers
// directly comparable.
package kernel

import (
	"filaments/internal/cost"
	"filaments/internal/sim"
)

// Time is a point in time, in nanoseconds since the node started.
// Virtual under the simulation binding, wall time under the real-time
// binding.
type Time = sim.Time

// Duration is an interval in nanoseconds.
type Duration = sim.Duration

// Convenient duration units, re-exported from the sim package.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NodeID identifies a node in the cluster, in [0, Nodes).
type NodeID int

// Broadcast is the destination that delivers a Send to every node except
// the sender.
const Broadcast NodeID = -1

// ServiceID names a registered request/reply service, unique per
// endpoint.
type ServiceID int

// Verdict is a service handler's decision about a request.
type Verdict int

const (
	// Reply sends the returned reply back to the requester.
	Reply Verdict = iota
	// Drop discards the request without replying; the requester's
	// retransmission will retry it (the paper's server-busy case).
	Drop
)

// Category classifies where CPU time goes, mirroring the paper's Table 2
// cost breakdown.
type Category int

const (
	// CatWork is useful application work.
	CatWork Category = iota
	// CatFilament is filament runtime overhead (creation, scheduling).
	CatFilament
	// CatData is data movement: page faults, page transfers, explicit
	// messages.
	CatData
	// CatSync is synchronization processing: barriers and reductions.
	CatSync
	// CatSyncDelay is time spent waiting at synchronization points.
	CatSyncDelay
	// CatIdle is time with nothing to run.
	CatIdle

	// NumCategories is the number of accounting categories.
	NumCategories = int(CatIdle) + 1
)

var categoryNames = [NumCategories]string{
	"work", "filament", "data", "sync", "sync-delay", "idle",
}

func (c Category) String() string {
	if c >= 0 && int(c) < NumCategories {
		return categoryNames[c]
	}
	return "unknown"
}

// Account is a per-category ledger of CPU time.
type Account [NumCategories]Duration

// Total sums all categories.
func (a Account) Total() Duration {
	var t Duration
	for _, d := range a {
		t += d
	}
	return t
}

// Service describes one registered request handler, transport-agnostic.
type Service struct {
	// Name is used in diagnostics.
	Name string
	// Handler services one request. It runs in node context (under the
	// node's scheduler or monitor) and must not block; long work belongs
	// on a thread it wakes. The returned size is the reply's wire size in
	// bytes.
	//
	// The reply may alias buffers the handler's layer goes on using (a DSM
	// frame, a diff scratch buffer): it is only good until this node
	// context ends, and the transport is done with it by then. The
	// real-time binding serialises it under the node monitor; the
	// simulation, which hands values over by reference and keeps them for
	// replay, takes a Snapshot of a reply that offers one.
	Handler func(from NodeID, req any) (reply any, size int, v Verdict)
	// Idempotent handlers may safely re-execute for duplicate requests.
	// Non-idempotent ones execute at most once per request; the transport
	// caches and replays their replies.
	Idempotent bool
	// ModifiesCritical marks handlers that mutate state a thread may be
	// inspecting in a critical section; the transport drops such requests
	// while the node is critical, relying on retransmission (the paper's
	// §2.3 deadlock-avoidance rule).
	ModifiesCritical bool
	// Category is the accounting category charged for handling.
	Category Category
}

// Snapshotter is what a reply that aliases its handler's buffers
// implements for by-reference transports: Snapshot returns a copy that
// shares no mutable bytes with the original.
type Snapshotter interface {
	Snapshot() any
}

// Thread is a kernel-schedulable thread on one node: a simulator proc
// under the simulation binding, a goroutine holding the node monitor
// under the real-time binding.
type Thread interface {
	// Name returns the thread's diagnostic name.
	Name() string
	// Block suspends the calling thread until a Ready. Must be called by
	// the thread itself.
	Block()
	// Yield gives other runnable threads (and, on the real-time binding,
	// pending message handlers) a chance to run.
	Yield()
	// Preempt is a dispatch point: the simulated SIGIO model processes
	// pending network input here; the real-time binding briefly releases
	// the node monitor.
	Preempt()
}

// Timer is a cancelable scheduled callback.
type Timer interface {
	// Stop cancels the timer; it reports false if the callback already
	// ran or was stopped.
	Stop() bool
}

// Clock provides time and timers: virtual (event-driven) in the
// simulation, wall time in the real-time binding.
type Clock interface {
	// Now returns the current time.
	Now() Time
	// Schedule runs fn in node context after d.
	Schedule(d Duration, fn func()) Timer
}

// Executor is the node-local thread scheduler and CPU ledger.
type Executor interface {
	// ID returns this node's identity.
	ID() NodeID
	// Spawn creates a ready-to-run thread.
	Spawn(name string, body func(t Thread)) Thread
	// Ready makes a blocked thread runnable; front queues it ahead of
	// other ready threads where the binding supports ordering.
	Ready(t Thread, front bool)
	// Charge spends d of CPU in category c. Under the simulation this
	// advances virtual time on the calling proc; under the real-time
	// binding it only updates the ledger.
	Charge(c Category, d Duration)
	// AddDelay records d in the ledger without consuming CPU (overlapped
	// costs, e.g. wait time attributed to synchronization).
	AddDelay(c Category, d Duration)
	// Model returns the cost model used for accounting.
	Model() *cost.Model
}

// Node is what the kernel layers hold: a clock plus an executor.
type Node interface {
	Clock
	Executor
}

// Handle tracks one outstanding asynchronous request.
type Handle interface {
	// Complete resolves the request locally with the given reply, as if
	// it had been answered; the transport stops retransmitting and the
	// callback runs. Used when the answer arrives out of band (e.g. a
	// barrier release broadcast overtaking the reply).
	Complete(reply any)
	// Cancel abandons the request; no callback will run.
	Cancel()
	// Done reports whether the request has completed or been canceled.
	Done() bool
}

// Transport is a reliable request/reply endpoint bound to one node, plus
// unreliable one-way sends — the Packet contract from the paper's §2.2.
// All methods must be called from node context; callbacks and raw
// handlers are likewise delivered in node context.
type Transport interface {
	// Register installs a service. All registration happens before
	// traffic flows.
	Register(id ServiceID, s Service)
	// RequestAsync issues a reliable request and invokes cb with the
	// reply. The request is retransmitted until answered, canceled, or
	// completed.
	RequestAsync(dst NodeID, svc ServiceID, req any, size int, cat Category, cb func(reply any)) Handle
	// RequestSized is RequestAsync with an expected reply size, used to
	// stretch retransmission timeouts for large replies (page transfers).
	RequestSized(dst NodeID, svc ServiceID, req any, size, expectedReply int, cat Category, cb func(reply any)) Handle
	// Call issues a request and blocks thread t until the reply arrives.
	Call(t Thread, dst NodeID, svc ServiceID, req any, size int, cat Category) any
	// Send transmits an unreliable one-way datagram (dst may be
	// Broadcast). Delivery is not guaranteed; protocols layered above
	// must tolerate loss (the barrier release broadcast does, via arrive
	// retransmission).
	Send(dst NodeID, payload any, size int, cat Category)
	// HandleRaw appends a handler for one-way datagrams. Handlers run in
	// node context, in registration order, until one returns true.
	HandleRaw(h func(from NodeID, payload any) bool)
	// Outstanding returns the number of requests in flight from this
	// endpoint.
	Outstanding() int
}
