package main

import (
	"sort"

	"filaments"
	"filaments/internal/obs"
)

// The traced run. The node programs record spans from here, outside the
// program under test: one root span per node per Run and, under it, one
// span around each init, RunPools/RunForkJoin/access loop, and
// Reduce/Barrier, all on the node's own clock (wall time under UDP,
// virtual time in the simulation). They go into the same Tracer the
// kernel's existing "dsm fault" and "sync barrier" spans go to, so one
// Chrome trace shows both and the kernel spans nest inside ours.

const appCat = "app"

// spanSink hands each node a recorder for one Run; nil records nothing.
// Every Run gets a Tracer of its own, so the tracer is what the spans of
// one Run share.
type spanSink struct {
	tr *filaments.Tracer
}

func (s *spanSink) node(rt *filaments.Runtime) *nodeSpans {
	if s == nil {
		return nil
	}
	return &nodeSpans{sink: s, rt: rt, rootID: int64(rt.ID()+1) << 32}
}

// nodeSpans records one node's spans. All of them are taken on the
// node's main thread, so a child never overlaps a sibling.
type nodeSpans struct {
	sink   *spanSink
	rt     *filaments.Runtime
	rootID int64
	next   int64
}

func (n *nodeSpans) now() int64 {
	if n == nil {
		return 0
	}
	return int64(n.rt.Node().Now())
}

// span records [t0, now) as a child of the node's root span.
func (n *nodeSpans) span(name string, t0 int64) {
	if n == nil {
		return
	}
	n.next++
	n.emit(name, t0, n.rootID+n.next, n.rootID)
}

// root records the node's whole program as the span the others hang off.
func (n *nodeSpans) root(t0 int64) {
	if n != nil {
		n.emit("run", t0, n.rootID, 0)
	}
}

func (n *nodeSpans) emit(name string, t0, id, parent int64) {
	n.sink.tr.Span(n.rt.ID(), t0, n.now()-t0, appCat, name,
		obs.Arg{Key: "id", Val: id},
		obs.Arg{Key: "parent", Val: parent})
}

// spanStats is what one traced Run contributes to the span metrics.
// Durations are nanoseconds on the node clock.
type spanStats struct {
	faults   []float64 // every kernel "dsm fault" span, all nodes
	barriers []float64 // every kernel "sync barrier" span, all nodes
	steps    []float64 // node 0: end of one app sync span to the end of the next
	// Node 0's main thread: its root span, the time inside compute spans
	// (runpools, forkjoin, access) and inside app sync spans (reduce,
	// barrier), and what is left when every child is taken out.
	run, compute, sync, self float64
	// Kernel barrier time and root-span time summed over all nodes.
	barrierAll, runAll float64
}

func (s *spanStats) add(o spanStats) {
	s.faults = append(s.faults, o.faults...)
	s.barriers = append(s.barriers, o.barriers...)
	s.steps = append(s.steps, o.steps...)
	s.run += o.run
	s.compute += o.compute
	s.sync += o.sync
	s.self += o.self
	s.barrierAll += o.barrierAll
	s.runAll += o.runAll
}

// analyse reduces one Run's events. A span's self time is its duration
// minus the child spans on the same thread; app spans and the kernel
// barrier spans inside them are all on the main thread. Fault spans are
// kept as their own distribution and are not taken out of the compute
// spans: they belong to pool threads and overlap other pools' work by
// design.
func analyse(events []obs.Event) spanStats {
	var st spanStats
	var syncEnds []int64 // node 0 app sync span ends, in emission order
	var initEnd int64 = -1
	for _, ev := range events {
		if ev.Dur < 0 {
			continue
		}
		d := float64(ev.Dur)
		switch {
		case ev.Cat == "dsm" && ev.Name == "fault":
			st.faults = append(st.faults, d)
		case ev.Cat == "sync" && ev.Name == "barrier":
			st.barriers = append(st.barriers, d)
			st.barrierAll += d
		case ev.Cat == appCat && ev.Name == "run":
			st.runAll += d
			if ev.Node == 0 {
				st.run += d
			}
		case ev.Cat == appCat && ev.Node == 0:
			switch ev.Name {
			case "init":
				initEnd = ev.TS + ev.Dur
			case "reduce", "barrier":
				st.sync += d
				syncEnds = append(syncEnds, ev.TS+ev.Dur)
			default:
				st.compute += d
			}
			st.self -= d
		}
	}
	st.self += st.run
	sort.Slice(syncEnds, func(i, j int) bool { return syncEnds[i] < syncEnds[j] })
	prev := initEnd
	for _, end := range syncEnds {
		if prev >= 0 {
			st.steps = append(st.steps, float64(end-prev))
		}
		prev = end
	}
	return st
}
