// Package daemon is the impure shell around internal/cluster: the
// coordinator that owns the membership table and runs jobs, the agent
// that joins and heartbeats, and the HTTP job API (api.go). The state
// machine itself lives in internal/cluster (a dflint kernel package);
// everything with goroutines, clocks, and sockets lives here.
package daemon

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"filaments"
	"filaments/internal/apps"
	"filaments/internal/cluster"
	"filaments/internal/obs"
	"filaments/internal/rtnode"
	"filaments/internal/udptrans"
)

// Config describes a coordinator.
type Config struct {
	// Nodes is the compute cluster size the coordinator hosts (default 4).
	// Each node is a live UDP endpoint; jobs run across all of them.
	Nodes int
	// Policy sets the failure-detector thresholds (default
	// cluster.DefaultPolicy).
	Policy cluster.Policy
	// MaxConcurrent is how many jobs may run at once (default 2). Each
	// concurrent job takes a service-id lane over the shared endpoints.
	MaxConcurrent int
	// QueueDepth bounds the queued-but-not-running backlog (default 16);
	// submissions beyond it are rejected rather than buffered without
	// bound.
	QueueDepth int
	// TickEvery is the failure-detector cadence (default 250 ms).
	TickEvery time.Duration
	// NoDiffs disables twin-and-diff page shipping, cluster-wide (see
	// filaments.UDPConfig.NoDiffs).
	NoDiffs bool
}

func (c *Config) defaults() {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.TickEvery == 0 {
		c.TickEvery = 250 * time.Millisecond
	}
}

// Coordinator hosts the cluster's membership table and schedules jobs
// onto a live UDPCluster. One coordinator per cluster; workers join via
// Agent. Create with NewCoordinator, serve its API with Handler (api.go),
// and Close on shutdown.
type Coordinator struct {
	cfg  Config
	cl   *filaments.UDPCluster
	reg  *obs.Registry
	self []string // the compute endpoints' addresses, members of their own cluster

	mu     sync.Mutex
	ms     *cluster.Membership
	jobs   map[string]*Job
	order  []string // job ids, submission order
	nextID int
	closed bool

	queue  chan *Job
	stop   chan struct{}
	runWG  sync.WaitGroup // job workers
	tickWG sync.WaitGroup // failure-detector ticker
}

// NewCoordinator opens the compute endpoints, registers the membership
// services on endpoint 0, seeds the membership with the coordinator's
// own compute nodes, and starts the scheduler and failure detector.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg.defaults()
	cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: cfg.Nodes, NoDiffs: cfg.NoDiffs})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	co := &Coordinator{
		cfg:   cfg,
		cl:    cl,
		reg:   reg,
		ms:    cluster.New(cfg.Policy, reg),
		jobs:  make(map[string]*Job),
		queue: make(chan *Job, cfg.QueueDepth),
		stop:  make(chan struct{}),
	}
	now := time.Now().UnixNano()
	for _, a := range cl.Addrs() {
		addr := a.String()
		co.self = append(co.self, addr)
		co.ms.Join(addr, now)
	}
	// Join/Beat/Leave transitions are idempotent by design (a duplicate
	// join refreshes, a duplicate leave is a no-op), so the handlers are
	// registered Idempotent: re-execution on a retransmitted request
	// beats holding a reply cache entry per prospective member forever.
	ep := cl.Endpoint(0)
	ep.Register(cluster.SvcJoin, udptrans.Service{Idempotent: true, Handler: co.handleJoin})
	ep.Register(cluster.SvcBeat, udptrans.Service{Idempotent: true, Handler: co.handleBeat})
	ep.Register(cluster.SvcLeave, udptrans.Service{Idempotent: true, Handler: co.handleLeave})

	for i := 0; i < cfg.MaxConcurrent; i++ {
		co.runWG.Add(1)
		go func() {
			defer co.runWG.Done()
			for j := range co.queue {
				co.runJob(j)
			}
		}()
	}
	co.tickWG.Add(1)
	go co.tickLoop()
	return co, nil
}

// tickLoop drives the failure detector and keeps the coordinator's own
// compute nodes Alive (they are in-process: their heartbeat is the
// ticker itself running).
func (co *Coordinator) tickLoop() {
	defer co.tickWG.Done()
	t := time.NewTicker(co.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
			now := time.Now().UnixNano()
			co.mu.Lock()
			for _, addr := range co.self {
				co.ms.Heartbeat(addr, now)
			}
			co.ms.Tick(now)
			co.mu.Unlock()
		}
	}
}

// Membership service handlers. These face the open network: malformed
// payloads are dropped (no reply — the sender retransmits and gives up
// on its own schedule), never panics.

func (co *Coordinator) handleJoin(from *net.UDPAddr, req []byte) ([]byte, bool) {
	v, ok := rtnode.DecodePayload(req)
	if !ok {
		return nil, true
	}
	m, ok := v.(cluster.JoinMsg)
	if !ok || m.Addr == "" {
		return nil, true
	}
	now := time.Now().UnixNano()
	co.mu.Lock()
	co.ms.Join(m.Addr, now)
	ack := cluster.JoinAck{Gen: co.ms.Generation(), SuspectAfter: co.ms.Policy().SuspectAfter}
	co.mu.Unlock()
	return rtnode.MarshalPayload(ack), false
}

func (co *Coordinator) handleBeat(from *net.UDPAddr, req []byte) ([]byte, bool) {
	v, ok := rtnode.DecodePayload(req)
	if !ok {
		return nil, true
	}
	m, ok := v.(cluster.BeatMsg)
	if !ok || m.Addr == "" {
		return nil, true
	}
	now := time.Now().UnixNano()
	co.mu.Lock()
	gen, known := co.ms.Heartbeat(m.Addr, now)
	co.mu.Unlock()
	return rtnode.MarshalPayload(cluster.BeatAck{Gen: gen, Known: known}), false
}

func (co *Coordinator) handleLeave(from *net.UDPAddr, req []byte) ([]byte, bool) {
	v, ok := rtnode.DecodePayload(req)
	if !ok {
		return nil, true
	}
	m, ok := v.(cluster.LeaveMsg)
	if !ok || m.Addr == "" {
		return nil, true
	}
	now := time.Now().UnixNano()
	co.mu.Lock()
	gen := co.ms.Leave(m.Addr, now)
	co.mu.Unlock()
	return rtnode.MarshalPayload(cluster.LeaveAck{Gen: gen}), false
}

// Addr returns the coordinator's membership endpoint address (compute
// endpoint 0), the address agents join.
func (co *Coordinator) Addr() *net.UDPAddr { return co.cl.Endpoint(0).Addr() }

// View snapshots the membership.
func (co *Coordinator) View() cluster.View {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.ms.View()
}

// Generation returns the current membership generation.
func (co *Coordinator) Generation() uint64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.ms.Generation()
}

// Metrics aggregates the coordinator's counters: membership transitions,
// every endpoint's wire counters, and every active run's node counters.
func (co *Coordinator) Metrics() []filaments.Sample {
	return obs.Merge(obs.Aggregate(co.reg), co.cl.Metrics())
}

// Submit validates spec, queues a job, and returns its record. The job
// runs when a scheduler slot frees up; watch Job.Done or poll the API.
func (co *Coordinator) Submit(spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return nil, fmt.Errorf("daemon: coordinator is shut down")
	}
	co.nextID++
	j := newJob(fmt.Sprintf("job-%d", co.nextID), spec, time.Now())
	select {
	case co.queue <- j:
	default:
		return nil, fmt.Errorf("daemon: job queue full (%d queued)", cap(co.queue))
	}
	co.jobs[j.ID] = j
	co.order = append(co.order, j.ID)
	return j, nil
}

// Job returns the job with the given id.
func (co *Coordinator) Job(id string) (*Job, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, ok := co.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (co *Coordinator) Jobs() []*Job {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]*Job, len(co.order))
	for i, id := range co.order {
		out[i] = co.jobs[id]
	}
	return out
}

// runJob executes one job on a fresh kernel run and records the outcome.
func (co *Coordinator) runJob(j *Job) {
	co.mu.Lock()
	gen := co.ms.Generation()
	co.mu.Unlock()
	j.start(gen, time.Now())
	res, trace, err := co.execute(j)
	j.finish(res, trace, err, time.Now())
}

// execute runs the job's app on its own lane and verifies the result
// against the sequential reference. A panic anywhere in the app or the
// kernel stack fails the job, not the daemon.
func (co *Coordinator) execute(j *Job) (res *JobResult, trace []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, trace = nil, nil
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	spec := j.Spec
	app, proto, err := spec.resolve()
	if err != nil {
		return nil, nil, err
	}
	var tracer *filaments.Tracer
	if spec.Trace {
		tracer = filaments.NewTracer()
	}
	run, err := co.cl.StartRun(filaments.UDPRunConfig{
		Protocol:  proto,
		Stealing:  spec.Stealing || app.Stealing,
		WakeFront: app.WakeFront,
		Tracer:    tracer,
	})
	if err != nil {
		return nil, nil, err
	}
	j.mu.Lock()
	j.lane = run.Lane()
	j.mu.Unlock()

	// The same Params feed the parallel run and the reference, so they
	// agree on the problem even when the spec relies on defaults.
	params := apps.Params{N: spec.N, Iters: spec.Iters}
	prog, result := app.Setup(run, params)
	rep, err := run.Run(prog)
	if err != nil {
		return nil, nil, err
	}
	want := app.Reference(params)
	bad := app.Mismatches(result.Collect(run.PeekF64), want)
	output := fmt.Sprintf("RESULT OK %s n=%d iters=%d (%d words)", app.Name, spec.N, spec.Iters, len(want))
	if bad != 0 {
		output = fmt.Sprintf("RESULT MISMATCH %d of %d words, %s n=%d iters=%d", bad, len(want), app.Name, spec.N, spec.Iters)
	}

	if tracer != nil {
		var buf bytes.Buffer
		if werr := tracer.WriteJSON(&buf); werr == nil {
			trace = buf.Bytes()
		}
	}
	res = &JobResult{
		OK:        bad == 0,
		Output:    output,
		ElapsedMS: float64(rep.Elapsed) / float64(time.Millisecond),
		Metrics:   rep.Metrics,
	}
	return res, trace, nil
}

// Close shuts the coordinator down in order: stop accepting jobs, drain
// the queue (queued jobs still run — a submission accepted is a
// submission honored), stop the failure detector, then close the
// endpoints. Idempotent.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		// A concurrent closer may still be draining; this call reports
		// success once endpoints are down, which Close below guarantees
		// only for the first caller. Serializing closers is the caller's
		// job; idempotence here is about the same caller's defer stacking.
		return nil
	}
	co.closed = true
	co.mu.Unlock()
	close(co.queue)
	co.runWG.Wait()
	close(co.stop)
	co.tickWG.Wait()
	return co.cl.Close()
}
