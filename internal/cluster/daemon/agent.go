package daemon

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"filaments/internal/cluster"
	"filaments/internal/rtnode"
	"filaments/internal/udptrans"
)

// Agent is a worker node's membership client: it joins the coordinator,
// heartbeats at the pace the coordinator's policy dictates, rejoins when
// the coordinator stops recognizing it (restart, or condemned during a
// partition), and leaves cleanly on Close.
type Agent struct {
	ep    *udptrans.Endpoint
	owned bool // the agent opened ep and must close it
	self  string
	coord *net.UDPAddr

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu  sync.Mutex
	gen uint64 // last membership generation acked
}

// NewAgent builds an agent that announces ep's address to the
// coordinator at coord. ep may be nil: the agent then binds its own
// loopback endpoint purely as a membership identity. The endpoint uses
// the transport's default retry budget (a few seconds), so a dead
// coordinator shows up as failed calls, not hung ones.
func NewAgent(coord string, ep *udptrans.Endpoint) (*Agent, error) {
	dst, err := net.ResolveUDPAddr("udp", coord)
	if err != nil {
		return nil, fmt.Errorf("daemon: coordinator address: %w", err)
	}
	a := &Agent{coord: dst, ep: ep, stop: make(chan struct{}), done: make(chan struct{})}
	if a.ep == nil {
		a.ep, err = udptrans.Listen("127.0.0.1:0", udptrans.Options{})
		if err != nil {
			return nil, err
		}
		a.owned = true
	}
	a.self = a.ep.Addr().String()
	return a, nil
}

// Self returns the address this agent is known by in the membership.
func (a *Agent) Self() string { return a.self }

// Generation returns the last membership generation the coordinator
// acked to this agent (0 before the first successful join).
func (a *Agent) Generation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen
}

func (a *Agent) setGen(g uint64) {
	a.mu.Lock()
	a.gen = g
	a.mu.Unlock()
}

// Start runs the join/heartbeat loop until Close. Call once.
func (a *Agent) Start() {
	go a.loop()
}

// call performs one membership RPC with a bounded deadline, decoding
// the ack defensively (the reply crosses the open network too).
func (a *Agent) call(svc uint16, msg any) (any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	reply, err := a.ep.CallContext(ctx, a.coord, svc, rtnode.MarshalPayload(msg))
	if err != nil {
		return nil, err
	}
	v, ok := rtnode.DecodePayload(reply)
	if !ok {
		return nil, fmt.Errorf("daemon: malformed ack from coordinator")
	}
	return v, nil
}

// join announces the agent; it returns the beat interval derived from
// the coordinator's policy (several beats per SuspectAfter, so one lost
// datagram never suspects a healthy node).
func (a *Agent) join() (time.Duration, error) {
	v, err := a.call(cluster.SvcJoin, cluster.JoinMsg{Addr: a.self})
	if err != nil {
		return 0, err
	}
	ack, ok := v.(cluster.JoinAck)
	if !ok {
		return 0, fmt.Errorf("daemon: unexpected join ack %T", v)
	}
	a.setGen(ack.Gen)
	beat := time.Duration(ack.SuspectAfter) / 3
	if beat < 50*time.Millisecond {
		beat = 50 * time.Millisecond
	}
	return beat, nil
}

func (a *Agent) loop() {
	defer close(a.done)
	const retry = 500 * time.Millisecond
	var beatEvery time.Duration
	for {
		// Join (or rejoin) until it sticks.
		for {
			d, err := a.join()
			if err == nil {
				beatEvery = d
				break
			}
			select {
			case <-a.stop:
				return
			case <-time.After(retry):
			}
		}
		// Beat until told to rejoin or to stop. Transport errors don't
		// abandon the loop: the coordinator may be briefly unreachable,
		// and its failure detector is the judge of our liveness, not us.
		rejoin := false
		for !rejoin {
			select {
			case <-a.stop:
				return
			case <-time.After(beatEvery):
			}
			v, err := a.call(cluster.SvcBeat, cluster.BeatMsg{Addr: a.self})
			if err != nil {
				continue
			}
			ack, ok := v.(cluster.BeatAck)
			if !ok {
				continue
			}
			a.setGen(ack.Gen)
			rejoin = !ack.Known
		}
	}
}

// Close leaves the membership (best effort), stops the loop, and closes
// the endpoint if the agent owns it. Idempotent.
func (a *Agent) Close() {
	a.stopOnce.Do(func() {
		close(a.stop)
		<-a.done
		if v, err := a.call(cluster.SvcLeave, cluster.LeaveMsg{Addr: a.self}); err == nil {
			if ack, ok := v.(cluster.LeaveAck); ok {
				a.setGen(ack.Gen)
			}
		}
		if a.owned {
			a.ep.Close() //nolint:errcheck // best-effort shutdown
		}
	})
}
