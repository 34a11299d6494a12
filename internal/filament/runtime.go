// Package filament implements the Filaments runtime, the paper's core
// contribution (§2): very lightweight, stackless threads executed by a few
// stackful server threads per node.
//
// A filament is only a code pointer plus arguments — no private stack.
// Three kinds cover all the applications the paper examines:
//
//   - run-to-completion (RTC) filaments execute once (matrix
//     multiplication);
//   - iterative filaments execute repeatedly with a barrier between sweeps
//     (Jacobi iteration);
//   - fork/join filaments recursively fork children and wait for them
//     (adaptive quadrature, expression trees) — see forkjoin.go.
//
// RTC and iterative filaments are organized into pools, ideally grouping
// filaments that touch the same pages. Each pool is executed by a server
// thread; when a filament faults on a remote page its pool's thread
// suspends and another pool runs, overlapping the page fetch with useful
// computation. Pools that fault finish late and are pushed onto a stack,
// so the next iteration starts them first — the paper's fault
// frontloading.
//
// The package performs the paper's three optimizations: inlining (pool
// sweeps call the filament function in a loop rather than switching
// per-filament), pruning (fork/join forks become procedure calls once all
// nodes are busy), and pattern recognition (pools that form a contiguous
// 1-D or 2-D strip of filaments are detected on the fly and iterated with
// arguments generated in registers, i.e. without touching descriptors).
package filament

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"filaments/internal/dsm"
	"filaments/internal/kernel"
	"filaments/internal/obs"
	"filaments/internal/reduce"
)

// Args is a filament's argument record. Filaments have no stack, only
// these values (floats are passed via math.Float64bits).
type Args [6]int64

// Func is the body of an RTC or iterative filament.
type Func func(e *Exec, a Args)

// flushQuantum bounds how much computed virtual time may accumulate before
// it is charged and pending messages are serviced — the simulation's
// analogue of SIGIO granularity.
const flushQuantum = kernel.Millisecond

// Stats counts runtime events on one node.
type Stats struct {
	FilamentsCreated int64
	FilamentsRun     int64
	InlinedRun       int64 // subset of FilamentsRun executed via strip recognition
	ForksSent        int64 // initial-distribution forks shipped to children
	ForksKept        int64 // forks kept as local filaments
	ForksPruned      int64 // forks turned into procedure calls
	StealsAttempted  int64
	StealsGranted    int64 // tasks this node stole
	StealsDenied     int64 // denials received
	TasksExecuted    int64 // fork/join tasks run
}

// Runtime is one node's Filaments instance.
type Runtime struct {
	node kernel.Node
	ep   kernel.Transport
	d    *dsm.DSM
	red  *reduce.Reducer
	n    int // cluster size

	pools []*Pool
	order []*Pool // run order for the next sweep (fault frontloading)
	// autoPools maps a fault signature (sorted touched-block list) to its
	// automatically created pool.
	autoPools map[string]*Pool
	// autoConsolidated is set once the observed faults have been used to
	// merge the never-faulting auto pools into one; sweeps counts RunPools
	// calls so consolidation skips the first sweep, whose faults are the
	// one-time initial data acquisition.
	autoConsolidated bool
	sweeps           int

	// MaxWorkers caps the fork/join server threads spawned on demand.
	MaxWorkers int
	// Stealing enables receiver-initiated dynamic load balancing (§2.3).
	Stealing bool

	fj fjState

	obs *obs.Obs
	ctr counters
}

// counters caches this node's registered runtime counters. Updates are
// atomic, so Stats() snapshots race-free from any goroutine while
// transport handlers (fork grants, steal replies) are live.
type counters struct {
	created, run, inlined                        *obs.Counter
	forksSent, forksKept, forksPruned            *obs.Counter
	stealsAttempted, stealsGranted, stealsDenied *obs.Counter
	tasksExecuted                                *obs.Counter
}

// New creates the runtime for one node. All subsystems (endpoint, DSM,
// reducer) must already be wired to the node.
func New(node kernel.Node, ep kernel.Transport, d *dsm.DSM, red *reduce.Reducer, n int) *Runtime {
	o := obs.Of(node)
	rt := &Runtime{
		node:       node,
		ep:         ep,
		d:          d,
		red:        red,
		n:          n,
		MaxWorkers: 16,
		autoPools:  make(map[string]*Pool),
		obs:        o,
	}
	rt.ctr = counters{
		created:         o.Counter("fil.created"),
		run:             o.Counter("fil.run"),
		inlined:         o.Counter("fil.inlined"),
		forksSent:       o.Counter("fil.forks_sent"),
		forksKept:       o.Counter("fil.forks_kept"),
		forksPruned:     o.Counter("fil.forks_pruned"),
		stealsAttempted: o.Counter("fil.steals_attempted"),
		stealsGranted:   o.Counter("fil.steals_granted"),
		stealsDenied:    o.Counter("fil.steals_denied"),
		tasksExecuted:   o.Counter("fil.tasks_executed"),
	}
	rt.initForkJoin()
	return rt
}

// Node returns the runtime's node.
func (rt *Runtime) Node() kernel.Node { return rt.node }

// Endpoint returns the node's transport endpoint (CG programs attach
// their explicit-messaging port to its raw-datagram chain).
func (rt *Runtime) Endpoint() kernel.Transport { return rt.ep }

// DSM returns the runtime's shared memory instance.
func (rt *Runtime) DSM() *dsm.DSM { return rt.d }

// Reducer returns the runtime's reduction/barrier instance.
func (rt *Runtime) Reducer() *reduce.Reducer { return rt.red }

// Nodes returns the cluster size.
func (rt *Runtime) Nodes() int { return rt.n }

// ID returns this node's rank.
func (rt *Runtime) ID() int { return int(rt.node.ID()) }

// monitor returns the memory-model monitor attached to the shared space,
// or nil (the common case; programs without a DSM never have one).
func (rt *Runtime) monitor() dsm.Monitor {
	if rt.d == nil {
		return nil
	}
	return rt.d.Space().Monitor()
}

// Stats returns a snapshot of runtime counters. The counters are atomic,
// so the snapshot is safe to take from any goroutine during a live run.
func (rt *Runtime) Stats() Stats {
	return Stats{
		FilamentsCreated: rt.ctr.created.Load(),
		FilamentsRun:     rt.ctr.run.Load(),
		InlinedRun:       rt.ctr.inlined.Load(),
		ForksSent:        rt.ctr.forksSent.Load(),
		ForksKept:        rt.ctr.forksKept.Load(),
		ForksPruned:      rt.ctr.forksPruned.Load(),
		StealsAttempted:  rt.ctr.stealsAttempted.Load(),
		StealsGranted:    rt.ctr.stealsGranted.Load(),
		StealsDenied:     rt.ctr.stealsDenied.Load(),
		TasksExecuted:    rt.ctr.tasksExecuted.Load(),
	}
}

// Exec is the execution context a filament runs in: the server thread plus
// an accumulator that batches virtual-time charges so that very small
// filaments do not pay a scheduling event each (the real machine equally
// charges time continuously, not per filament).
type Exec struct {
	rt      *Runtime
	d       *dsm.DSM // rt.d, held directly: every shared access starts here
	t       kernel.Thread
	pending kernel.Duration // uncharged CatWork time
	filPend kernel.Duration // uncharged CatFilament overhead
	faulted bool            // a DSM access missed during this context's run
	// ran counts the pool filaments run since the last flush point and
	// not yet added to fil.run — nor to fil.inlined, when strip says the
	// pool runs as a recognized strip. The dispatch loops count here and
	// Flush publishes, so a filament costs no atomic operation.
	strip bool
	ran   int64
}

// NewExec wraps a server thread in an execution context.
func (rt *Runtime) NewExec(t kernel.Thread) *Exec { return &Exec{rt: rt, d: rt.d, t: t} }

// Thread returns the underlying server thread.
func (e *Exec) Thread() kernel.Thread { return e.t }

// Runtime returns the owning runtime.
func (e *Exec) Runtime() *Runtime { return e.rt }

// Compute records d of application work. It is charged (and pending
// messages serviced) at the next flush point.
func (e *Exec) Compute(d kernel.Duration) {
	e.pending += d
	if e.pending >= flushQuantum {
		e.Flush()
	}
}

// overhead records filament-runtime overhead.
func (e *Exec) overhead(d kernel.Duration) { e.filPend += d }

// Flush charges all accumulated time and services pending messages.
// Large charges (a coarse filament's whole computation) are spent in
// quantum-sized slices with a dispatch point after each, so incoming
// requests are serviced with bounded latency exactly as SIGIO would
// interrupt a long computation on the real machine.
func (e *Exec) Flush() {
	if e.ran > 0 {
		e.rt.ctr.run.Add(e.ran)
		if e.strip {
			e.rt.ctr.inlined.Add(e.ran)
		}
		e.ran = 0
	}
	for e.pending > 0 {
		d := e.pending
		if d > flushQuantum {
			d = flushQuantum
		}
		e.pending -= d
		e.rt.node.Charge(kernel.CatWork, d)
		e.t.Preempt()
	}
	if e.filPend > 0 {
		e.rt.node.Charge(kernel.CatFilament, e.filPend)
		e.filPend = 0
	}
	e.t.Preempt()
}

// --- DSM access. ---
//
// Each accessor tries the DSM's resident hit first: one block lookup and
// the load or store. Only when that declines (the block is not accessible
// at the needed level, a publish snapshot is pending, or a Monitor is
// attached) does it take the full path, which flushes accumulated work
// before an access that will fault, so virtual time is accurate at the
// moment the server thread suspends.

// ReadF64 reads a shared float64.
func (e *Exec) ReadF64(a dsm.Addr) float64 {
	if v, ok := e.d.LoadResident(a); ok {
		return math.Float64frombits(v)
	}
	e.beforeMiss(e.d.Readable(a))
	return e.d.ReadF64(e.t, a)
}

// WriteF64 writes a shared float64.
func (e *Exec) WriteF64(a dsm.Addr, v float64) {
	if e.d.StoreResident(a, math.Float64bits(v)) {
		return
	}
	e.beforeMiss(e.d.Writable(a))
	e.d.WriteF64(e.t, a, v)
}

// ReadI64 reads a shared int64.
func (e *Exec) ReadI64(a dsm.Addr) int64 {
	if v, ok := e.d.LoadResident(a); ok {
		return int64(v)
	}
	e.beforeMiss(e.d.Readable(a))
	return e.d.ReadI64(e.t, a)
}

// WriteI64 writes a shared int64.
func (e *Exec) WriteI64(a dsm.Addr, v int64) {
	if e.d.StoreResident(a, uint64(v)) {
		return
	}
	e.beforeMiss(e.d.Writable(a))
	e.d.WriteI64(e.t, a, v)
}

// beforeMiss prepares the full access path after the resident hit
// declined: if the block is not accessible the access will suspend this
// thread, so the context is marked faulted and flushed first.
func (e *Exec) beforeMiss(accessible bool) {
	if !accessible {
		e.faulted = true
		e.Flush()
	}
}

// NoteRead declares a shared range this node is about to read, for the
// memory-model checker (see dsm.Monitor). A no-op without a monitor.
func (e *Exec) NoteRead(r dsm.Range) { e.d.NoteRead(r) }

// NoteWrite declares a shared range this node is about to write.
func (e *Exec) NoteWrite(r dsm.Range) { e.d.NoteWrite(r) }

// Reduce flushes and performs a cluster-wide reduction (a barrier point).
func (e *Exec) Reduce(x float64, op reduce.Op) float64 {
	e.Flush()
	return e.rt.red.Reduce(e.t, x, op)
}

// Barrier flushes and waits for all nodes.
func (e *Exec) Barrier() {
	e.Flush()
	e.rt.red.Barrier(e.t)
}

// --- Pools of RTC / iterative filaments. ---

type fil struct {
	fn   Func
	args Args
}

// Pool is a collection of filaments that ideally reference the same pages.
// Assigning filaments to pools well is the programmer's (or compiler's)
// job, per the paper.
type Pool struct {
	rt   *Runtime
	name string
	fils []fil

	// Strip pattern recognition (paper §2.1): a pool whose filaments share
	// one function and whose args form a row-major 1-D/2-D lattice is
	// executed by an inline loop generating arguments directly.
	patOK    bool
	patFn    Func
	patFnPtr uintptr
	patBase  Args
	patWidth int // columns per row once detected; 0 while still 1-D
}

// NewPool creates an empty pool.
func (rt *Runtime) NewPool(name string) *Pool {
	p := &Pool{rt: rt, name: name, patOK: true}
	rt.pools = append(rt.pools, p)
	rt.order = append(rt.order, p)
	return p
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Size returns the number of filaments in the pool.
func (p *Pool) Size() int { return len(p.fils) }

// Add appends a filament. Creation cost is charged (batched) to the
// caller's context.
func (p *Pool) Add(e *Exec, fn Func, args Args) {
	p.recognize(fn, args)
	p.fils = append(p.fils, fil{fn: fn, args: args})
	p.rt.ctr.created.Inc()
	e.overhead(p.rt.node.Model().FilamentCreate)
	if e.filPend >= flushQuantum {
		e.Flush()
	}
}

// recognize updates the strip-pattern state machine with the next
// filament. The recognized pattern is args laid out row-major:
// (i0+k/w, j0+k%w, c2, c3).
func (p *Pool) recognize(fn Func, args Args) {
	if !p.patOK {
		return
	}
	k := len(p.fils)
	if k == 0 {
		p.patFn = fn
		p.patFnPtr = reflect.ValueOf(fn).Pointer()
		p.patBase = args
		return
	}
	if reflect.ValueOf(fn).Pointer() != p.patFnPtr {
		p.patOK = false
		return
	}
	for q := 2; q < len(args); q++ {
		if args[q] != p.patBase[q] {
			p.patOK = false
			return
		}
	}
	if p.patWidth == 0 {
		// Still scanning the first row.
		switch {
		case args[0] == p.patBase[0] && args[1] == p.patBase[1]+int64(k):
			return // continues the first row
		case args[0] == p.patBase[0]+1 && args[1] == p.patBase[1]:
			p.patWidth = k // first row had k columns
			return
		default:
			p.patOK = false
			return
		}
	}
	i := p.patBase[0] + int64(k/p.patWidth)
	j := p.patBase[1] + int64(k%p.patWidth)
	if args[0] != i || args[1] != j {
		p.patOK = false
	}
}

// stripAhead is how many generator states the strip loop rotates through.
// A state is passed to the filament as one 48-byte record but advanced one
// word at a time, and a processor stalls when it copies a record whose
// word it has just stored; with four states each rests for three
// filaments between its advance and its next copy. Measured on empty
// filaments (BenchmarkPoolRunInlined, one CPU): one state 10 ns per
// filament, two 4.7, four 3.7 — descriptor dispatch costs 3.5 to 4.
const stripAhead = 4

// advance moves a strip generator state n filaments on, row-major over the
// w columns starting at j0.
func (a *Args) advance(n, j0, w int64) {
	a[1] += n
	for a[1] >= j0+w {
		a[1] -= w
		a[0]++
	}
}

// Inlined reports whether the pool will run via the recognized strip
// pattern.
func (p *Pool) Inlined() bool { return p.patOK && len(p.fils) >= 2 }

// run executes every filament in the pool on the given context. Neither
// loop touches an atomic: filaments are counted on e and published to
// fil.run / fil.inlined by Flush, so live readers see progress at every
// flush point and exact totals once the pool ends.
//
//dflint:hotpath
func (p *Pool) run(e *Exec) {
	model := p.rt.node.Model()
	e.strip = p.Inlined()
	if e.strip {
		// Pattern-recognized strip: iterate generating args in
		// "registers"; descriptors are not read.
		fn, cost := p.patFn, model.FilamentSwitchInlined
		j0, w := p.patBase[1], int64(p.patWidth)
		if w == 0 {
			w = int64(len(p.fils))
		}
		var gen [stripAhead]Args // gen[d] generates filaments d, d+stripAhead, ...
		for d := range gen {
			gen[d] = p.patBase
			gen[d].advance(int64(d), j0, w)
		}
		for k := range p.fils {
			g := &gen[k%stripAhead]
			e.overhead(cost)
			fn(e, *g)
			g.advance(stripAhead, j0, w)
			e.ran++
			if e.pending+e.filPend >= flushQuantum {
				e.Flush()
			}
		}
	} else {
		cost := model.FilamentSwitch
		for i := range p.fils {
			f := &p.fils[i]
			e.overhead(cost)
			f.fn(e, f.args)
			e.ran++
			if e.pending+e.filPend >= flushQuantum {
				e.Flush()
			}
		}
	}
	e.Flush()
}

// RunPools executes every pool once and returns when all have completed on
// this node. Pools run in frontloaded order: pools that faulted during the
// previous sweep (and therefore finished late) run first this time. Woken
// threads go to the back of the ready queue (dsm.WakeFront=false is the
// iterative setting), which together with the pool stack maximizes the
// overlap of communication and computation.
func (rt *Runtime) RunPools(e *Exec) {
	e.Flush()
	order := rt.order
	live := 0
	for _, p := range order {
		if len(p.fils) > 0 {
			live++
		}
	}
	if live == 0 {
		return
	}
	type done struct {
		p       *Pool
		faulted bool
	}
	var completed []done
	remaining := live
	waiter := e.t
	waiting := false
	for _, p := range order {
		if len(p.fils) == 0 {
			continue
		}
		p := p
		rt.node.Spawn("pool/"+p.name, func(t kernel.Thread) {
			pe := rt.NewExec(t)
			p.run(pe)
			completed = append(completed, done{p: p, faulted: pe.faulted})
			remaining--
			if remaining == 0 && waiting {
				waiting = false
				rt.node.Ready(waiter, false)
			}
		})
	}
	for remaining > 0 {
		waiting = true
		waiter.Block()
	}
	waiting = false
	// Next sweep runs every pool that faulted first (the paper: "all
	// faulting pools are run first"), newest completion first so the pool
	// that waited longest issues its request earliest; non-faulting pools
	// follow in their completion order.
	next := make([]*Pool, 0, len(rt.order))
	for i := len(completed) - 1; i >= 0; i-- {
		if completed[i].faulted {
			next = append(next, completed[i].p)
		}
	}
	for i := 0; i < len(completed); i++ {
		if !completed[i].faulted {
			next = append(next, completed[i].p)
		}
	}
	for _, p := range rt.order {
		if len(p.fils) == 0 {
			next = append(next, p)
		}
	}
	rt.order = next

	// Adaptive consolidation for automatically clustered pools (the
	// paper's future work: "adaptive algorithms for making both of these
	// decisions within DF at run time"): after the first sweep has shown
	// which pools actually fault, all never-faulting auto pools merge
	// into a single local pool, leaving one pool per fault signature plus
	// one big pool whose computation overlaps the fetches.
	rt.sweeps++
	if len(rt.autoPools) > 1 && !rt.autoConsolidated {
		faulted := make(map[*Pool]bool, len(completed))
		anyClean, anyFaulted := false, false
		for _, c := range completed {
			faulted[c.p] = c.faulted
			if c.faulted {
				anyFaulted = true
			} else {
				anyClean = true
			}
		}
		// Wait until the sharing pattern has stabilized: during the first
		// sweeps either every pool faults (a node pulling its strips in)
		// or none does (the node that owns all the data initially), and
		// neither says anything about steady-state sharing. A sweep with
		// both faulting and clean pools is the signature of the stable
		// pattern.
		if anyClean && anyFaulted {
			rt.autoConsolidated = true
			rt.consolidateAutoPools(e, faulted)
		}
	}
}

// consolidateAutoPools merges the auto pools that did not fault during the
// last sweep into one pool, re-adding their filaments in creation order so
// strip recognition still applies.
func (rt *Runtime) consolidateAutoPools(e *Exec, faulted map[*Pool]bool) {
	var local []*Pool
	for _, p := range rt.pools {
		if _, auto := rt.autoPools[strings.TrimPrefix(p.name, "auto:")]; auto && !faulted[p] {
			local = append(local, p)
		}
	}
	if len(local) < 2 {
		return
	}
	merged := rt.NewPool("auto-local")
	moved := 0
	for _, p := range local {
		for _, f := range p.fils {
			merged.recognize(f.fn, f.args)
			merged.fils = append(merged.fils, f)
			moved++
		}
		p.fils = nil
		delete(rt.autoPools, strings.TrimPrefix(p.name, "auto:"))
	}
	// Re-clustering walks every descriptor once.
	e.overhead(kernel.Duration(moved) * rt.node.Model().FilamentSwitch)
	// Drop the emptied pools from the run order and pool list.
	rt.order = dropEmpty(rt.order)
	rt.pools = dropEmpty(rt.pools)
}

func dropEmpty(ps []*Pool) []*Pool {
	out := ps[:0]
	for _, p := range ps {
		if len(p.fils) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// AddAuto appends a filament to an automatically chosen pool, clustering
// filaments that share pages into the same pool — the automation the paper
// lists as future work ("automatic clustering of filaments that share
// pages into execution pools"). The clustering key is the set of shared-
// memory blocks the filament will touch, supplied by the caller as the
// addresses its arguments refer to; filaments with identical fault
// signatures land in one pool, so a fault suspends exactly the filaments
// that would fault on the same page, and fault frontloading orders the
// pools from the second sweep on.
func (rt *Runtime) AddAuto(e *Exec, fn Func, args Args, touches ...dsm.Addr) {
	key := rt.signature(touches)
	p, ok := rt.autoPools[key]
	if !ok {
		p = rt.NewPool("auto:" + key)
		rt.autoPools[key] = p
	}
	p.Add(e, fn, args)
}

// signature canonicalizes a touch set to its sorted list of block ids.
func (rt *Runtime) signature(touches []dsm.Addr) string {
	sp := rt.d.Space()
	blocks := make([]int, 0, len(touches))
	for _, a := range touches {
		b := sp.BlockOf(a)
		dup := false
		for _, x := range blocks {
			if x == b {
				dup = true
				break
			}
		}
		if !dup {
			blocks = append(blocks, b)
		}
	}
	sort.Ints(blocks)
	var sb strings.Builder
	for i, b := range blocks {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(b))
	}
	return sb.String()
}

// AutoPoolCount reports how many pools AddAuto has created.
func (rt *Runtime) AutoPoolCount() int { return len(rt.autoPools) }

// PoolOrder returns the names of the pools in the order the next sweep
// will run them (fault-frontloaded after the first sweep).
func (rt *Runtime) PoolOrder() []string {
	names := make([]string, len(rt.order))
	for i, p := range rt.order {
		names[i] = p.name
	}
	return names
}

// ResetPools clears all pools (filaments and recognition state), keeping
// the pool objects and their frontloaded order.
func (rt *Runtime) ResetPools() {
	for _, p := range rt.pools {
		p.fils = p.fils[:0]
		p.patOK = true
		p.patWidth = 0
	}
}
