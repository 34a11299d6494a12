package dsm

import (
	"fmt"
	"sort"

	"filaments/internal/kernel"
)

// Lazy release consistency (home-based, barrier-scoped intervals).
//
// Every block permanently belongs to its home node (Space.HomeOf), which
// never loses ownership: there are no redirects, no ownership grants, and
// no Mirage window under this protocol. Any node may make its copy of a
// block writable at any time, locally, by twinning the content it holds;
// concurrent writers of the same block are legal as long as the program
// is data-race-free (they touch disjoint words between barriers).
//
// At barrier release (AtRelease, called by the reducer before it drains
// and arrives) each node run-length-diffs every dirty copy against its
// twin and flushes the diffs to the homes in one batched request per
// peer; the home merges them word-by-word into the master frame. The
// interval's dirty-block list doubles as the node's write notices: the
// reducer unions them up the tournament and broadcasts the cluster-wide
// set with the release, and AtAcquire invalidates exactly the noticed
// stale copies — unrelated read-only copies survive the barrier, which
// implicit-invalidate cannot do.

// lrcFlush carries one writer's interval diffs for all blocks homed at
// the destination. Blocks[i] is patched with Diffs[i].
type lrcFlush struct {
	Blocks []int32
	// Diffs alias the transport's receive buffer after decode;
	// serveFlush patches home frames synchronously.
	//dflint:frame
	Diffs [][]byte
}

// lrcBeginWrite makes a non-home copy writable in place: the current
// content becomes the twin (the merge base the release flush diffs
// against) and the block joins the interval's dirty list.
func (d *DSM) lrcBeginWrite(b int, st *blockState) {
	st.twin = d.getBuf(len(st.frame))
	copy(st.twin, st.frame)
	d.ctr.twinBytes.Add(int64(len(st.twin)))
	st.access = accRW
	d.lrcDirty = append(d.lrcDirty, int32(b))
}

// AtRelease performs the release-side duties of the protocol at a
// synchronization point, before the node drains and arrives: under lazy
// release consistency every non-home dirty copy is diffed against its
// twin and flushed to the block's home (counted in outstanding, so the
// usual Quiesce covers the acks), and write access is dropped so the next
// interval re-faults and re-twins. It returns this node's write notices —
// the sorted dirty-block list — for the reducer to propagate with the
// barrier. A no-op returning nil under the single-writer protocols.
func (d *DSM) AtRelease() []int32 {
	if d.proto != LazyRelease || len(d.lrcDirty) == 0 {
		return nil
	}
	notices := append([]int32(nil), d.lrcDirty...)
	sort.Slice(notices, func(i, j int) bool { return notices[i] < notices[j] })
	d.ctr.writeNotices.Add(int64(len(notices)))

	// Group the non-home dirty blocks by home peer, preserving first-use
	// order so the flush fan-out is deterministic in the simulator.
	var homes []kernel.NodeID
	flushes := make(map[kernel.NodeID]*lrcFlush)
	me := d.node.ID()
	mon := d.space.monitor
	for _, b := range d.lrcDirty {
		st := &d.blocks[b]
		if st.owner {
			continue // home writes merge in place; notices still carry them
		}
		home := d.space.HomeOf(int(b))
		// The diff lives in a block buffer until the home's ack: the
		// simulated transport retransmits the request by reference.
		diff, ok := diffEncode(d.getBuf(len(st.frame))[:0], st.twin, st.frame, 2*len(st.frame)+64)
		if !ok {
			panic(fmt.Sprintf("dsm: node %d could not encode the flush diff for block %d", me, b))
		}
		f := flushes[home]
		if f == nil {
			f = &lrcFlush{}
			flushes[home] = f
			homes = append(homes, home)
		}
		f.Blocks = append(f.Blocks, b)
		f.Diffs = append(f.Diffs, diff)
		d.node.Charge(kernel.CatData, d.node.Model().PageServe)
		d.ctr.bytesOut.Add(int64(len(diff)))
		if mon != nil {
			mon.OnDiffFlush(me, home, int(b), d.node.Now())
		}
		// Drop the writable copy: the merged content lives at the home
		// now, and the next interval's first access re-fetches it. The
		// transport diff base (shadow) keeps the content as installed, a
		// version the home really published, so it stays valid.
		st.access = accNone
		st.snap = false
		d.putBuf(st.frame)
		d.putBuf(st.twin)
		st.frame, st.twin = nil, nil
	}
	d.lrcDirty = d.lrcDirty[:0]
	for _, home := range homes {
		f := flushes[home]
		size := reqSize
		for _, diff := range f.Diffs {
			size += 4 + len(diff)
		}
		d.outstanding++
		d.ep.RequestAsync(home, SvcFlush, *f, size, kernel.CatData, func(any) {
			for _, diff := range f.Diffs {
				d.putBuf(diff)
			}
			d.outstanding--
			d.checkQuiescent()
		})
	}
	return notices
}

// serveFlush merges a writer's interval diffs into the home frames. It
// runs at a release point of the sender, before any node has passed the
// barrier, so for data-race-free programs the patched words of concurrent
// writers are disjoint and merge order does not matter.
func (d *DSM) serveFlush(from kernel.NodeID, req any) (any, int, kernel.Verdict) {
	m := req.(lrcFlush)
	model := d.node.Model()
	mon := d.space.monitor
	for i, b := range m.Blocks {
		st := &d.blocks[b]
		if !st.owner {
			panic(fmt.Sprintf("dsm: node %d got a flush for block %d it does not home", d.node.ID(), b))
		}
		d.node.Charge(kernel.CatData, model.PageInstall)
		if st.snap {
			// The frame was published as st.ver; merging produces new
			// content, so twin it first and advance the version.
			d.snapshot(st)
		}
		if !diffApply(st.frame, m.Diffs[i]) {
			panic(fmt.Sprintf("dsm: node %d got a malformed flush diff for block %d", d.node.ID(), b))
		}
		st.touched = true
		d.ctr.lrcMerges.Inc()
		d.ctr.bytesIn.Add(int64(len(m.Diffs[i])))
		if mon != nil {
			mon.OnDiffMerge(d.node.ID(), from, int(b), d.node.Now())
		}
	}
	return nil, 8, kernel.Reply
}

// AtAcquire applies the write notices that arrived with a barrier
// release: stale copies of noticed blocks are discarded (message-free,
// like implicit-invalidate, but scoped to the blocks actually written),
// and noticed home blocks this node holds writable are downgraded so the
// next interval's first write re-enters the dirty list. A no-op under the
// single-writer protocols, whose notice lists are always empty.
func (d *DSM) AtAcquire(notices []int32) {
	if d.proto != LazyRelease {
		return
	}
	for _, b := range notices {
		st := &d.blocks[b]
		if st.owner {
			// The home's frame holds all merged diffs — never stale. The
			// downgrade only re-arms notice generation for home writes.
			if st.access == accRW {
				st.access = accRO
			}
			continue
		}
		if st.access != accNone {
			// Exactly what an explicit invalidation does (serveInval).
			st.access = accNone
			st.snap = false
			d.dropFrame(st, false)
		}
	}
}
