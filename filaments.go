// Package filaments is the public API of the Distributed Filaments (DF)
// reproduction: a software kernel for efficient fine-grain parallelism on a
// cluster of workstations (Freeh, Lowenthal, Andrews — OSDI '94).
//
// A Cluster is a deterministic simulation of the paper's testbed: nodes
// with one virtual CPU each, a shared 10 Mbps Ethernet, a paged distributed
// shared memory, the Packet reliable datagram protocol, tournament-barrier
// reductions, and the Filaments runtime (run-to-completion, iterative, and
// fork/join filaments). Real data moves through the real protocols —
// results are exact — while time is virtual and calibrated to the paper's
// hardware, so performance experiments reproduce the paper's shape.
//
// Quick start:
//
//	cfg := filaments.Config{Nodes: 4, Protocol: filaments.WriteInvalidate}
//	c := filaments.New(cfg)
//	grid := c.AllocMatrix(256, 256)           // shared, owned by node 0
//	report, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
//	    // SPMD: this function runs on every node's main server thread.
//	    pool := rt.NewPool("points")
//	    ...
//	    rt.RunPools(e)
//	    e.Barrier()
//	})
package filaments

import (
	"fmt"

	"filaments/internal/cost"
	"filaments/internal/dsm"
	"filaments/internal/filament"
	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/packet"
	"filaments/internal/reduce"
	"filaments/internal/sim"
	"filaments/internal/simnet"
	"filaments/internal/threads"
)

// Re-exported core types, so applications only import this package.
type (
	// Runtime is a node's Filaments runtime instance (see
	// internal/filament).
	Runtime = filament.Runtime
	// Exec is a filament execution context.
	Exec = filament.Exec
	// Args is a filament argument record.
	Args = filament.Args
	// Pool is a collection of RTC/iterative filaments.
	Pool = filament.Pool
	// Join accumulates fork/join results.
	Join = filament.Join
	// FJFunc is the body of a fork/join filament.
	FJFunc = filament.FJFunc
	// Addr is a shared-memory address.
	Addr = dsm.Addr
	// Matrix is a shared row-major float64 matrix.
	Matrix = dsm.Matrix
	// Protocol is a page consistency protocol.
	Protocol = dsm.Protocol
	// Duration is virtual time.
	Duration = sim.Duration
	// CostModel is the calibrated machine model.
	CostModel = cost.Model
	// Tracer collects cluster-wide trace events and exports them as
	// Chrome trace-event JSON (load in about:tracing or Perfetto).
	// Sim-binding traces are stamped in virtual time, so identical runs
	// produce byte-identical output.
	Tracer = obs.Tracer
	// Sample is one named metric value from a run.
	Sample = obs.Sample
	// Monitor observes DSM accesses, page transfers, and synchronization
	// events on every node (see internal/dsm). Install one with
	// Config.Monitor (or UDPConfig.Monitor); internal/check builds its
	// happens-before race detector on this seam.
	Monitor = dsm.Monitor
	// Range is a half-open [Lo, Hi) shared-address interval, used by the
	// access-annotation API (Exec.NoteRead / Exec.NoteWrite) and by fork/
	// join range describers.
	Range = dsm.Range
	// TaskKey identifies one fork/join task shipment for monitor pairing.
	TaskKey = dsm.TaskKey
)

// NewTracer returns an empty trace sink. Install it with Config.Tracer
// (or UDPConfig.Tracer) before Run, then WriteJSON after.
func NewTracer() *Tracer { return obs.NewTracer() }

// Page consistency protocols.
const (
	Migratory          = dsm.Migratory
	WriteInvalidate    = dsm.WriteInvalidate
	ImplicitInvalidate = dsm.ImplicitInvalidate
	LazyRelease        = dsm.LazyRelease
)

// Virtual-time units for Exec.Compute costs.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// PageSize is the DSM protection granularity (4 KB, as on the paper's
// SunOS testbed).
const PageSize = dsm.PageSize

// Reduction operators.
var (
	Sum = reduce.Sum
	Max = reduce.Max
	Min = reduce.Min
)

// Config describes a simulated cluster. Its per-run fields are the ones
// UDPRunConfig names; New lifts them into one for the shared host.
type Config struct {
	// Nodes is the cluster size (>= 1).
	Nodes int
	// Protocol is the page consistency protocol (default Migratory, the
	// zero value).
	Protocol Protocol
	// SharedBytes is the size of the shared address space (default 64 MB).
	SharedBytes int64
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Model overrides the calibrated cost model; nil uses cost.Default.
	Model *CostModel
	// LossRate injects network frame loss (0 on the paper's quiet LAN).
	LossRate float64
	// Stealing enables receiver-initiated fork/join load balancing.
	Stealing bool
	// MaxWorkers caps per-node fork/join server threads (default 16).
	MaxWorkers int
	// CentralBarrier replaces the tournament barrier with the centralized
	// baseline (ablation).
	CentralBarrier bool
	// DisseminationBarrier replaces the tournament barrier with the
	// butterfly allreduce (log2(p) fully parallel rounds; power-of-two
	// clusters only, otherwise the tournament is used).
	DisseminationBarrier bool
	// WakeFront schedules threads woken by a page arrival at the front of
	// the ready queue (the fork/join setting; iterative programs use the
	// back for fault frontloading).
	WakeFront bool
	// Tracer, when non-nil, records kernel events (page faults,
	// invalidations, steals, barrier rounds, retransmits) from every node
	// in virtual time.
	Tracer *Tracer
	// Monitor, when non-nil, observes every node's DSM accesses, page
	// transfers, and synchronization events (see internal/check for the
	// memory-model checker built on it). Callbacks run synchronously in
	// node context and must not block or re-enter the DSM.
	Monitor Monitor
	// MirageWindow overrides the cost model's Mirage anti-thrashing
	// window: 0 keeps the model's default, a negative value disables the
	// window, and a positive value replaces it.
	MirageWindow Duration
}

// NodeReport is one node's accounting after a run.
type NodeReport struct {
	CPU      threads.Account
	DSM      dsm.Stats
	Packet   packet.Stats
	Runtime  filament.Stats
	Switches int64
	Finished Duration // when this node's main thread completed
}

// Report summarizes a run.
type Report struct {
	// Elapsed is the virtual time from start until the last node's main
	// thread finished — the program's running time.
	Elapsed Duration
	// PerNode holds each node's counters.
	PerNode []NodeReport
	// Net holds network totals.
	Net simnet.Stats
	// Metrics is the cluster-wide metric aggregation: every node's
	// counters summed by name, sorted by name.
	Metrics []Sample
}

// Seconds returns the elapsed virtual time in seconds.
func (r *Report) Seconds() float64 { return r.Elapsed.Seconds() }

// Cluster is a simulated workstation cluster running Distributed
// Filaments. Create with New, set up shared data with the Alloc methods
// (promoted from the embedded host, host.go), then call Run once.
type Cluster struct {
	host
	eng   *sim.Engine
	nw    *simnet.Network
	nodes []*threads.Node
	eps   []*packet.Endpoint
	ran   bool
}

// New builds a cluster from cfg.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("filaments: Config.Nodes must be >= 1")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Cluster{}
	c.init(cfg.Nodes, UDPRunConfig{
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
	c.eng = sim.New(cfg.Seed)
	c.nw = simnet.New(c.eng, &c.model, cfg.Nodes)
	c.nw.LossRate = cfg.LossRate
	for i := 0; i < cfg.Nodes; i++ {
		node := threads.NewNode(c.nw, simnet.NodeID(i))
		ep := packet.New(node)
		_, red := c.addNode(node, ep)
		if cfg.CentralBarrier {
			red.Style = reduce.Central
		}
		if cfg.DisseminationBarrier {
			red.Style = reduce.Dissemination
		}
		c.nodes = append(c.nodes, node)
		c.eps = append(c.eps, ep)
	}
	return c
}

// Space returns the shared address space (for attaching a monitor in
// tests).
func (c *Cluster) Space() *dsm.Space { return c.space }

// Network returns the simulated Ethernet (for fault injection in tests).
func (c *Cluster) Network() *simnet.Network { return c.nw }

// Engine returns the simulation engine (for scheduling test probes).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Model returns the cluster's cost model.
func (c *Cluster) Model() *CostModel { return &c.model }

// Metrics aggregates every node's counter registry: values summed by
// name, sorted by name. Safe to call at any time; counters are
// race-free.
func (c *Cluster) Metrics() []Sample { return obs.Aggregate(c.registries()...) }

// Program is the SPMD node program: it runs on every node's main server
// thread.
type Program func(rt *Runtime, e *Exec)

// Run executes program on every node and returns the run report. It may be
// called once per Cluster.
func (c *Cluster) Run(program Program) (*Report, error) {
	if c.ran {
		return nil, fmt.Errorf("filaments: cluster already ran")
	}
	c.ran = true
	rep := &Report{PerNode: make([]NodeReport, c.size)}
	remaining := c.size
	for _, n := range c.nodes {
		n.Start()
	}
	c.eng.Schedule(0, func() {
		for i, rt := range c.rts {
			i, rt := i, rt
			c.nodes[i].Spawn("main", func(t kernel.Thread) {
				e := rt.NewExec(t)
				program(rt, e)
				e.Flush()
				rep.PerNode[i].Finished = Duration(c.eng.Now())
				remaining--
				if remaining == 0 {
					rep.Elapsed = Duration(c.eng.Now())
					for _, n := range c.nodes {
						n.Stop()
					}
				}
			})
		}
	})
	if err := c.eng.Run(); err != nil {
		return nil, err
	}
	for i := range rep.PerNode {
		rep.PerNode[i].CPU = c.nodes[i].Account()
		rep.PerNode[i].DSM = c.dsms[i].Stats()
		rep.PerNode[i].Packet = c.eps[i].Stats()
		rep.PerNode[i].Runtime = c.rts[i].Stats()
		rep.PerNode[i].Switches = c.nodes[i].Switches()
	}
	rep.Net = c.nw.Stats()
	rep.Metrics = c.Metrics()
	return rep, nil
}
