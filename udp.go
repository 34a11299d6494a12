package filaments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"filaments/internal/dsm"
	"filaments/internal/filament"
	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/rtnode"
	"filaments/internal/udptrans"
)

// This file is the real-time face of the package: the same DF kernel
// layers (DSM, reductions, filaments) that run inside the deterministic
// simulation are wired to internal/rtnode and internal/udptrans instead,
// so a program runs over real UDP sockets in real goroutines. UDPCluster
// hosts every node in one process (endpoints on loopback); UDPNode hosts
// one node of a multi-process cluster (see cmd/dfnode).
//
// The cluster's lifecycle is split in two since the service layer
// (internal/cluster/daemon) arrived: a UDPCluster is built once — its
// endpoints, sockets, and peers' reply caches live for the daemon's
// lifetime — and then hosts many UDPRuns, each a complete kernel stack
// (address space, nodes, DSMs, reducers, runtimes) on its own service-id
// lane (rtnode/mux.go), so several jobs can run concurrently over the
// same sockets. The single-program form (NewUDPCluster → Alloc → Run)
// still works: it is a cluster with one default run that closes the
// endpoints when the run completes.
//
// Results are exact — the identical kernel code moves the data — but time
// is wall time, so performance depends on the host, not on the paper's
// calibrated cost model.

// UDPConfig describes a single-process UDP cluster. The per-run fields
// (Protocol, SharedBytes, Stealing, MaxWorkers, WakeFront, Model,
// Tracer, Monitor, MirageWindow) seed the default run for the
// single-program form; StartRun takes its own UDPRunConfig.
type UDPConfig struct {
	// Nodes is the cluster size (>= 1). Each node gets its own UDP
	// endpoint on 127.0.0.1.
	Nodes int
	// Protocol is the page consistency protocol (default Migratory).
	Protocol Protocol
	// SharedBytes is the size of the shared address space (default 64 MB).
	SharedBytes int64
	// Stealing enables receiver-initiated fork/join load balancing.
	Stealing bool
	// MaxWorkers caps per-node fork/join server threads (default 16).
	MaxWorkers int
	// WakeFront schedules page-arrival wakeups at the front (fork/join
	// setting); it is advisory here — the Go scheduler owns ordering.
	WakeFront bool
	// Model overrides the cost model used for ledger accounting; nil uses
	// cost.Default.
	Model *CostModel
	// Tracer, when non-nil, records kernel events from every node in wall
	// time.
	Tracer *Tracer
	// Monitor, when non-nil, observes every node's DSM accesses, page
	// transfers, and synchronization events. Under this binding callbacks
	// arrive concurrently from per-node monitor goroutines, so the Monitor
	// must synchronize internally.
	Monitor Monitor
	// MirageWindow overrides the cost model's Mirage anti-thrashing
	// window: 0 keeps the model's default, a negative value disables the
	// window, and a positive value replaces it.
	MirageWindow Duration
	// NoDiffs disables twin-and-diff page shipping, which is on by
	// default under UDP (the simulation keeps whole pages either way, so
	// its byte accounting matches the paper's tables). Cluster-wide, like
	// the protocol choice.
	NoDiffs bool
}

// UDPRunConfig describes one program run on a live UDPCluster. Zero
// values take the same defaults as UDPConfig. It is also the per-run half
// of Config, UDPConfig and UDPNodeConfig: every constructor lifts its
// fields into one for the shared host (host.go).
type UDPRunConfig struct {
	// Protocol is the page consistency protocol (default Migratory).
	Protocol Protocol
	// SharedBytes is the size of the run's shared address space (default
	// 64 MB). Each run has its own address space.
	SharedBytes int64
	// Stealing enables receiver-initiated fork/join load balancing.
	Stealing bool
	// MaxWorkers caps per-node fork/join server threads (default 16).
	MaxWorkers int
	// WakeFront is advisory under real time (see UDPConfig.WakeFront).
	WakeFront bool
	// Model overrides the ledger cost model; nil uses cost.Default.
	Model *CostModel
	// Tracer, when non-nil, records this run's kernel events.
	Tracer *Tracer
	// Monitor, when non-nil, observes this run's DSM (see
	// UDPConfig.Monitor).
	Monitor Monitor
	// MirageWindow overrides the Mirage window (see UDPConfig).
	MirageWindow Duration
}

// UDPNodeReport is one node's accounting after a real-time run.
type UDPNodeReport struct {
	CPU       kernel.Account
	DSM       dsm.Stats
	Transport udptrans.Stats
	Runtime   filament.Stats
}

// UDPReport summarizes a real-time run.
type UDPReport struct {
	// Elapsed is the wall time from Run's start until the last node's main
	// thread finished.
	Elapsed time.Duration
	// PerNode holds each node's counters. Transport counters are
	// endpoint-cumulative: on a run-many cluster they include other runs'
	// traffic (the per-run view is Metrics).
	PerNode []UDPNodeReport
	// Metrics is the run-scoped metric aggregation: every node's counters
	// summed by name, plus the endpoints' counters as the interval delta
	// across the run. On a cluster running jobs concurrently the node
	// counters are exact per-run; the endpoint deltas also include
	// overlapping runs' wire traffic (documented in DESIGN.md §6).
	Metrics []Sample
}

// UDPCluster is a set of live UDP endpoints on loopback hosting DF
// program runs. Create with NewUDPCluster; then either use the
// single-program form (Alloc/Run/Peek on the cluster itself, which
// closes the cluster when the run finishes) or the service form
// (StartRun per job, many runs concurrently, Close when the daemon
// exits).
type UDPCluster struct {
	// The single-program form's default run, on lane 0: Alloc*, Peek*,
	// Outstanding, Runtime, DSM and EnableTracing on the cluster are its
	// methods, promoted. Set once by NewUDPCluster and never reassigned, so
	// Metrics may read it from any goroutine; a service cluster simply
	// never runs it (an idle kernel stack holds no goroutine or socket).
	*UDPRun

	cfg   UDPConfig
	eps   []*udptrans.Endpoint
	addrs []*net.UDPAddr
	muxes []*rtnode.EventMux

	mu       sync.Mutex
	nextLane uint16
	freed    []uint16
	active   []*UDPRun
	closed   bool
}

// rtOptions gives the real-time binding's endpoints an effectively
// unbounded retry budget: one logical request keeps one sequence number
// until it is answered, so the receiver's reply cache absorbs duplicates
// and non-idempotent handlers execute exactly once.
// Re-issuing a timed-out call under a fresh sequence number would
// re-execute the handler — a steal grant whose reply was lost would lose
// the stolen filament with it.
var rtOptions = udptrans.Options{MaxRetries: 1 << 30}

// NewUDPCluster builds a cluster from cfg, opening one UDP endpoint per
// node on 127.0.0.1 and seeding the default run from cfg's per-run
// fields.
func NewUDPCluster(cfg UDPConfig) (*UDPCluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("filaments: UDPConfig.Nodes must be >= 1")
	}
	c := &UDPCluster{cfg: cfg}
	c.eps = make([]*udptrans.Endpoint, cfg.Nodes)
	c.addrs = make([]*net.UDPAddr, cfg.Nodes)
	c.muxes = make([]*rtnode.EventMux, cfg.Nodes)
	for i := range c.eps {
		ep, err := udptrans.Listen("127.0.0.1:0", rtOptions)
		if err != nil {
			for _, open := range c.eps[:i] {
				open.Close() //nolint:errcheck // best-effort unwind
			}
			return nil, err
		}
		c.eps[i] = ep
		c.addrs[i] = ep.Addr()
		c.muxes[i] = rtnode.NewEventMux(ep)
	}
	// A fresh cluster always has a lane free, so this cannot fail.
	c.UDPRun, _ = c.StartRun(UDPRunConfig{
		Protocol:     cfg.Protocol,
		SharedBytes:  cfg.SharedBytes,
		Stealing:     cfg.Stealing,
		MaxWorkers:   cfg.MaxWorkers,
		WakeFront:    cfg.WakeFront,
		Model:        cfg.Model,
		Tracer:       cfg.Tracer,
		Monitor:      cfg.Monitor,
		MirageWindow: cfg.MirageWindow,
	})
	return c, nil
}

// Addrs returns every node's endpoint address, indexed by node ID.
func (c *UDPCluster) Addrs() []*net.UDPAddr {
	return append([]*net.UDPAddr(nil), c.addrs...)
}

// Endpoint returns node i's endpoint (the daemon registers its
// membership services on endpoint 0).
func (c *UDPCluster) Endpoint(i int) *udptrans.Endpoint { return c.eps[i] }

// acquireLane hands out a free service-id lane, recycling lanes of
// finished runs so a long-lived daemon never exhausts the lane space.
func (c *UDPCluster) acquireLane() (uint16, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, fmt.Errorf("filaments: UDP cluster is closed")
	}
	if n := len(c.freed); n > 0 {
		lane := c.freed[n-1]
		c.freed = c.freed[:n-1]
		return lane, nil
	}
	if c.nextLane >= rtnode.MaxLanes {
		return 0, fmt.Errorf("filaments: all %d lanes busy", rtnode.MaxLanes)
	}
	lane := c.nextLane
	c.nextLane++
	return lane, nil
}

func (c *UDPCluster) finishRun(r *UDPRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, a := range c.active {
		if a == r {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	c.freed = append(c.freed, r.lane)
}

// netMetrics aggregates every endpoint's counter registry.
func (c *UDPCluster) netMetrics() []Sample {
	var regs []*obs.Registry
	for _, ep := range c.eps {
		regs = append(regs, ep.Metrics())
	}
	return obs.Aggregate(regs...)
}

// StartRun builds a fresh kernel stack — address space, nodes, DSMs,
// reducers, runtimes — on its own service-id lane over the cluster's
// live endpoints. Runs are independent and may execute concurrently;
// each is used once: allocate, Run, Peek.
func (c *UDPCluster) StartRun(rc UDPRunConfig) (*UDPRun, error) {
	lane, err := c.acquireLane()
	if err != nil {
		return nil, err
	}
	r := &UDPRun{c: c, lane: lane}
	r.init(c.cfg.Nodes, rc)
	r.netBase = c.netMetrics()
	// Same construction order as the simulated Cluster: every DSM exists
	// before the first allocation.
	for i := 0; i < c.cfg.Nodes; i++ {
		node := rtnode.NewNode(kernel.NodeID(i), &r.model)
		tr := rtnode.NewTransportOn(c.muxes[i], node, lane)
		tr.SetPeers(c.addrs)
		d, _ := r.addNode(node, tr)
		d.SetDiffs(!c.cfg.NoDiffs)
		r.mon = append(r.mon, node)
		r.trs = append(r.trs, tr)
	}
	c.mu.Lock()
	c.active = append(c.active, r)
	c.mu.Unlock()
	return r, nil
}

// Metrics aggregates the cluster's live counters: every endpoint's
// registry plus every active run's node registries, summed by name,
// sorted by name. Safe to call at any time from any goroutine; counters
// are race-free.
func (c *UDPCluster) Metrics() []Sample {
	c.mu.Lock()
	runs := append([]*UDPRun(nil), c.active...)
	c.mu.Unlock()
	var regs []*obs.Registry
	for _, ep := range c.eps {
		regs = append(regs, ep.Metrics())
	}
	// The default run leaves active when it finishes, but the
	// single-program form reads Metrics after Run: its node counters are
	// always included, once.
	regs = append(regs, c.UDPRun.registries()...)
	for _, r := range runs {
		if r != c.UDPRun {
			regs = append(regs, r.registries()...)
		}
	}
	return obs.Aggregate(regs...)
}

// Close shuts the cluster's endpoints down. Calls still in flight on
// active runs fail over to their shutdown paths; the single-program form
// calls this implicitly at the end of Run.
func (c *UDPCluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	var first error
	for _, ep := range c.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Run executes program on the default run and closes the cluster — the
// single-program form. It may be called once per UDPCluster (the default
// run refuses a second).
func (c *UDPCluster) Run(program Program) (*UDPReport, error) {
	rep, err := c.UDPRun.Run(program)
	if cerr := c.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return rep, err
}

// UDPRun is one program run on a live UDPCluster: a complete kernel
// stack on its own service-id lane. Allocate shared data, call Run once,
// then Peek the results; the lane and transports are reclaimed when Run
// returns, the endpoints stay up for the next run.
type UDPRun struct {
	host
	c    *UDPCluster
	lane uint16
	trs  []*rtnode.Transport

	netBase []Sample // endpoint counters at StartRun, for the run delta

	mu  sync.Mutex
	ran bool
}

// Lane returns the run's service-id lane (diagnostics).
func (r *UDPRun) Lane() int { return int(r.lane) }

// Metrics aggregates the run's node counters plus the endpoints'
// counters as the delta since StartRun. Node counters are exactly this
// run's; the endpoint delta also includes any overlapping run's wire
// traffic (endpoints are shared — see DESIGN.md §6).
func (r *UDPRun) Metrics() []Sample {
	return obs.Merge(obs.Aggregate(r.registries()...), obs.Delta(r.c.netMetrics(), r.netBase))
}

// Run executes program on every node and returns the run report. It may
// be called once per UDPRun; on completion the run's transports detach
// from the shared endpoints (which stay up) and its lane is recycled.
// A non-nil report may accompany a non-nil error when the run completed
// but failed its quiescence invariant.
func (r *UDPRun) Run(program Program) (*UDPReport, error) {
	r.mu.Lock()
	if r.ran {
		r.mu.Unlock()
		return nil, fmt.Errorf("filaments: UDP run already ran")
	}
	r.ran = true
	r.mu.Unlock()
	// The caller's goroutine filled every node's block table (Alloc), and
	// a peer's page request can reach a node's handler goroutine before
	// that node's own main has ever held the monitor. Passing through each
	// monitor here orders the allocations before every later holder.
	for _, n := range r.mon {
		n.WithLock(func() {})
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range r.mon {
		i := i
		wg.Add(1)
		r.mon[i].Spawn("main", func(t kernel.Thread) {
			defer wg.Done()
			e := r.rts[i].NewExec(t)
			program(r.rts[i], e)
			e.Flush()
		})
	}
	// Every main has passed its final synchronization before the first
	// transport detaches, so any straggling retransmissions are still
	// answered (from the reply caches) while it matters.
	wg.Wait()
	rep := &UDPReport{Elapsed: time.Since(start), PerNode: make([]UDPNodeReport, r.size)}
	for _, tr := range r.trs {
		tr.Detach()
	}
	// Detach drained the async request goroutines, so the per-transport
	// outstanding counts are settled; the invariant transconf enforces
	// after every scenario must hold after every job too.
	leaked := r.Outstanding()
	for _, n := range r.mon {
		n.Close()
		n.Wait()
	}
	for i := range rep.PerNode {
		rep.PerNode[i] = UDPNodeReport{
			CPU:       r.mon[i].Account(),
			DSM:       r.dsms[i].Stats(),
			Transport: r.trs[i].Endpoint().Stats(),
			Runtime:   r.rts[i].Stats(),
		}
	}
	rep.Metrics = r.Metrics()
	r.c.finishRun(r)
	if leaked != 0 {
		return rep, fmt.Errorf("filaments: %d requests still outstanding after run", leaked)
	}
	return rep, nil
}

// UDPNodeConfig describes one node of a multi-process UDP cluster. Every
// process must allocate identical shared data in identical order (the
// SPMD convention), so the address spaces agree.
type UDPNodeConfig struct {
	// ID is this node's identity, in [0, Nodes).
	ID int
	// Nodes is the cluster size.
	Nodes int
	// Peers holds every node's endpoint address, indexed by node ID; entry
	// ID is the address this node binds.
	Peers []string
	// Protocol is the page consistency protocol (default Migratory).
	Protocol Protocol
	// SharedBytes is the size of the shared address space (default 64 MB).
	SharedBytes int64
	// Stealing enables receiver-initiated fork/join load balancing.
	Stealing bool
	// MaxWorkers caps per-node fork/join server threads (default 16).
	MaxWorkers int
	// WakeFront is advisory under real time (see UDPConfig.WakeFront).
	WakeFront bool
	// Linger is how long the node keeps servicing requests after its own
	// main finishes, so slower peers' retransmissions still get answered
	// (default 500 ms).
	Linger time.Duration
	// KeepOpen leaves the endpoint open when Run completes; the caller
	// owns shutdown via Close. The service layer needs this ordering: a
	// worker's membership Leave rides the same socket as kernel traffic,
	// so it must be sent after the epoch but before the socket dies.
	KeepOpen bool
	// Model overrides the ledger cost model; nil uses cost.Default.
	Model *CostModel
	// NoDiffs disables twin-and-diff page shipping (see UDPConfig.NoDiffs);
	// identical on every process of the cluster.
	NoDiffs bool
}

// UDPNode is one process's node in a multi-process cluster. It hosts
// exactly one node, so the host's per-node accessors take index 0, and
// its allocations run under the node's monitor (see host.live).
type UDPNode struct {
	host
	cfg UDPNodeConfig
	tr  *rtnode.Transport
	ran bool

	shutdown sync.Once
}

// NewUDPNode builds this process's node and binds its endpoint.
func NewUDPNode(cfg UDPNodeConfig) (*UDPNode, error) {
	if cfg.Nodes <= 0 || cfg.ID < 0 || cfg.ID >= cfg.Nodes {
		return nil, fmt.Errorf("filaments: bad node identity %d of %d", cfg.ID, cfg.Nodes)
	}
	if len(cfg.Peers) != cfg.Nodes {
		return nil, fmt.Errorf("filaments: %d peer addresses for %d nodes", len(cfg.Peers), cfg.Nodes)
	}
	if cfg.Linger == 0 {
		cfg.Linger = 500 * time.Millisecond
	}
	addrs := make([]*net.UDPAddr, cfg.Nodes)
	for i, s := range cfg.Peers {
		a, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return nil, fmt.Errorf("filaments: peer %d: %w", i, err)
		}
		addrs[i] = a
	}
	ep, err := udptrans.Listen(cfg.Peers[cfg.ID], rtOptions)
	if err != nil {
		return nil, err
	}
	u := &UDPNode{cfg: cfg}
	u.live = true
	u.init(cfg.Nodes, UDPRunConfig{
		Protocol:    cfg.Protocol,
		SharedBytes: cfg.SharedBytes,
		Stealing:    cfg.Stealing,
		MaxWorkers:  cfg.MaxWorkers,
		WakeFront:   cfg.WakeFront,
		Model:       cfg.Model,
	})
	node := rtnode.NewNode(kernel.NodeID(cfg.ID), &u.model)
	u.tr = rtnode.NewTransport(node, ep)
	u.tr.SetPeers(addrs)
	d, _ := u.addNode(node, u.tr)
	d.SetDiffs(!cfg.NoDiffs)
	u.mon = append(u.mon, node)
	return u, nil
}

// Endpoint returns the node's UDP endpoint. The service layer
// (internal/cluster/daemon) sends its membership traffic — join,
// heartbeat, leave — over this same socket, so a worker needs exactly
// one bound address for both roles.
func (u *UDPNode) Endpoint() *udptrans.Endpoint { return u.tr.Endpoint() }

// Metrics aggregates this node's counter registry with its endpoint's.
// Safe to call live from any goroutine (e.g. an HTTP metrics handler);
// counters are race-free.
func (u *UDPNode) Metrics() []Sample {
	return obs.Aggregate(append(u.registries(), u.tr.Endpoint().Metrics())...)
}

// Close shuts the node down: the endpoint closes (failing any pending
// calls) and the node scheduler stops. Idempotent, safe to call
// concurrently with Run — it is the SIGTERM path, where a daemon must
// release its socket even mid-epoch.
func (u *UDPNode) Close() {
	u.shutdown.Do(func() {
		u.tr.Close() //nolint:errcheck // best-effort shutdown
		u.mon[0].Close()
		u.mon[0].Wait()
	})
}

// Run executes this node's part of the SPMD program, lingers so lagging
// peers' retransmissions are still answered, then closes the endpoint.
func (u *UDPNode) Run(program Program) (*UDPNodeReport, error) {
	if u.ran {
		return nil, fmt.Errorf("filaments: UDP node already ran")
	}
	u.ran = true
	done := make(chan struct{})
	u.mon[0].Spawn("main", func(t kernel.Thread) {
		defer close(done)
		e := u.rts[0].NewExec(t)
		program(u.rts[0], e)
		e.Flush()
	})
	<-done
	time.Sleep(u.cfg.Linger)
	if !u.cfg.KeepOpen {
		u.Close()
	}
	return &UDPNodeReport{
		CPU:       u.mon[0].Account(),
		DSM:       u.dsms[0].Stats(),
		Transport: u.tr.Endpoint().Stats(),
		Runtime:   u.rts[0].Stats(),
	}, nil
}
