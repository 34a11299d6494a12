package filaments

import (
	"fmt"

	"filaments/internal/cost"
	"filaments/internal/dsm"
	"filaments/internal/filament"
	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/reduce"
	"filaments/internal/rtnode"
)

// Host is what a DF application sets itself up on: the cluster size and
// one general allocation. The simulated Cluster, a UDPCluster, a UDPRun
// and a UDPNode all satisfy it, so an application's setup — its
// allocations, in SPMD order, and the node program over them — is
// written once and placed unchanged on any of them. Host deliberately
// has no Run: a run's report is binding-specific (virtual time and
// simulated frames, or wall time and datagrams), and the caller that
// built the cluster knows which one it holds.
type Host interface {
	// Nodes returns the cluster size.
	Nodes() int
	// AllocWith reserves size bytes of shared memory with the given
	// placement (initial owner, per-page owners, page grouping).
	AllocWith(size int64, opts AllocOpts) Addr
}

// AllocOpts controls the placement of a shared allocation.
type AllocOpts = dsm.AllocOpts

// AllocMatrix allocates a rows×cols shared matrix on h with the given
// placement.
func AllocMatrix(h Host, rows, cols int, opts AllocOpts) Matrix {
	m := Matrix{Rows: rows, Cols: cols}
	m.Base = h.AllocWith(m.Bytes(), opts)
	return m
}

// StripedRows places a rows×cols matrix in one horizontal strip of rows
// per node.
func StripedRows(rows, cols, nodes int) AllocOpts { return dsm.StripedRows(rows, cols, nodes) }

// hostNode is what the shared host needs of a binding's node beyond the
// kernel seam: its observability handle.
type hostNode interface {
	kernel.Node
	Obs() *obs.Obs
}

// host is the one implementation behind every binding's setup and
// inspection surface: Cluster, UDPRun (and through it UDPCluster's
// single-program form) and UDPNode embed it, so allocation, result
// peeking, the quiescence count, tracing and the per-node kernel stack
// are each written once. It holds the parts of a run that do not depend
// on the binding — the cost model, the address space, and every hosted
// node's DSM and runtime — plus, under real time, the node monitors that
// stand between the caller's goroutine and kernel state.
type host struct {
	rc    UDPRunConfig
	size  int // cluster size; a UDPNode hosts one node of it
	model cost.Model
	space *dsm.Space
	obs   []*obs.Obs
	dsms  []*dsm.DSM
	rts   []*filament.Runtime

	// mon holds the hosted nodes under the real-time binding, appended by
	// its constructors next to each addNode; nil in the simulation, where
	// nothing runs concurrently with the caller outside Run.
	mon []*rtnode.Node
	// live marks a host whose endpoint has been serving since
	// construction (UDPNode): a peer process that started earlier may
	// already be sending page requests, so the block table must not grow
	// outside the monitor its handlers read it under.
	live bool
}

// init applies rc's defaults and builds what exists once per run: the
// cost model and the shared address space. Nodes are added with addNode,
// all of them before the first allocation.
func (h *host) init(size int, rc UDPRunConfig) {
	if rc.SharedBytes == 0 {
		rc.SharedBytes = 64 << 20
	}
	if rc.MaxWorkers == 0 {
		rc.MaxWorkers = 16
	}
	h.rc, h.size = rc, size
	if rc.Model != nil {
		h.model = *rc.Model
	} else {
		h.model = cost.Default()
	}
	switch {
	case rc.MirageWindow > 0:
		h.model.MirageWindow = rc.MirageWindow
	case rc.MirageWindow < 0:
		h.model.MirageWindow = 0
	}
	h.space = dsm.NewSpace(rc.SharedBytes)
	if rc.Monitor != nil {
		h.space.SetMonitor(rc.Monitor)
	}
}

// addNode wires one node's kernel stack — DSM, reducer, filament runtime
// — over its transport, the same way under every binding, and returns
// the two layers a binding may still tune (page diffs, barrier style).
func (h *host) addNode(node hostNode, tr kernel.Transport) (*dsm.DSM, *reduce.Reducer) {
	if h.rc.Tracer != nil {
		node.Obs().SetTracer(h.rc.Tracer)
	}
	d := dsm.New(node, tr, h.space, h.rc.Protocol)
	d.WakeFront = h.rc.WakeFront
	red := reduce.New(node, tr, d, h.size)
	rt := filament.New(node, tr, d, red, h.size)
	rt.Stealing = h.rc.Stealing
	rt.MaxWorkers = h.rc.MaxWorkers
	h.obs = append(h.obs, node.Obs())
	h.dsms = append(h.dsms, d)
	h.rts = append(h.rts, rt)
	return d, red
}

// enter runs fn in hosted node i's context: under its monitor where there
// is one.
func (h *host) enter(i int, fn func()) {
	if h.mon == nil {
		fn()
		return
	}
	h.mon[i].WithLock(fn)
}

// Nodes returns the cluster size.
func (h *host) Nodes() int { return h.size }

// Runtime returns hosted node i's runtime (for inspecting stats after
// Run). A UDPNode hosts one node, index 0.
func (h *host) Runtime(i int) *Runtime { return h.rts[i] }

// DSM returns hosted node i's DSM instance (for inspecting stats).
func (h *host) DSM(i int) *dsm.DSM { return h.dsms[i] }

// EnableTracing installs t as every hosted node's trace sink. Equivalent
// to setting the config's Tracer before construction.
func (h *host) EnableTracing(t *Tracer) {
	for _, o := range h.obs {
		o.SetTracer(t)
	}
}

// registries returns every hosted node's counter registry.
func (h *host) registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(h.obs))
	for i, o := range h.obs {
		regs[i] = o.Reg
	}
	return regs
}

// Outstanding sums the requests still awaiting replies across every
// hosted node's endpoint. After Run returns it must be zero: a nonzero
// value means a protocol layer leaked an in-flight request past its
// barrier.
func (h *host) Outstanding() int {
	n := 0
	for _, rt := range h.rts {
		n += rt.Endpoint().Outstanding()
	}
	return n
}

// AllocWith reserves shared memory with the given placement. Under the
// SPMD convention every process of a multi-process cluster performs
// identical allocations in identical order.
func (h *host) AllocWith(size int64, opts AllocOpts) (a Addr) {
	if !h.live {
		return h.space.Alloc(size, opts)
	}
	h.enter(0, func() { a = h.space.Alloc(size, opts) })
	return a
}

// Alloc reserves shared memory owned initially by node 0.
func (h *host) Alloc(size int64) Addr { return h.AllocWith(size, AllocOpts{}) }

// AllocOwned reserves shared memory owned initially by the given node.
func (h *host) AllocOwned(size int64, owner int) Addr {
	return h.AllocWith(size, AllocOpts{Owner: kernel.NodeID(owner)})
}

// AllocMatrix allocates a rows×cols shared matrix owned by node 0.
func (h *host) AllocMatrix(rows, cols int) Matrix { return AllocMatrix(h, rows, cols, AllocOpts{}) }

// AllocMatrixOwned allocates a shared matrix initially owned by one node.
func (h *host) AllocMatrixOwned(rows, cols, owner int) Matrix {
	return AllocMatrix(h, rows, cols, AllocOpts{Owner: kernel.NodeID(owner)})
}

// AllocMatrixStriped allocates a matrix owned in one horizontal strip per
// node.
func (h *host) AllocMatrixStriped(rows, cols int) Matrix {
	return AllocMatrix(h, rows, cols, StripedRows(rows, cols, h.size))
}

// PeekF64 reads a shared float64 from whichever hosted node owns it. It
// performs no protocol action and is meant for result verification after
// Run.
func (h *host) PeekF64(a Addr) float64 {
	for i, d := range h.dsms {
		var v float64
		var ok bool
		h.enter(i, func() { v, ok = d.Peek(a) })
		if ok {
			return v
		}
	}
	panic(fmt.Sprintf("filaments: no owner holds address %d", a))
}

// PeekMatrix copies a shared matrix out of the cluster for verification
// after Run.
func (h *host) PeekMatrix(m Matrix) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		row := make([]float64, m.Cols)
		for j := range row {
			row[j] = h.PeekF64(m.Addr(i, j))
		}
		out[i] = row
	}
	return out
}
