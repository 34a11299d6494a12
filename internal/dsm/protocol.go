package dsm

import (
	"filaments/internal/kernel"
)

// strategy is the per-protocol policy seam. The DSM owns the mechanism —
// faults, requests, installs, invalidation rounds, quiescence — and
// delegates every consistency decision to its strategy, one per Protocol
// value. The three single-writer protocols differ only in when a serve
// takes the master copy away, who tracks read copies, and what happens
// at synchronization points; lazy release consistency additionally takes
// over the write-fault path (multi-writer copies) and the release and
// acquire actions.
type strategy interface {
	// takesAway reports whether serving a request with the given write
	// flag moves the master copy (and ownership) to the requester.
	takesAway(write bool) bool
	// shipsCopyset reports whether an ownership grant carries the
	// server's copyset for requester-driven invalidation.
	shipsCopyset() bool
	// invalidateOnGrant reports whether a requester that was granted
	// ownership for a write must invalidate the shipped copyset before
	// the write may proceed (IVY-style).
	invalidateOnGrant() bool
	// servedCopy adjusts the server's own state after it replied with a
	// non-owning copy of block b to node from.
	servedCopy(d *DSM, b int, st *blockState, from kernel.NodeID)
	// installCopy installs a non-owning page reply on the requester,
	// setting the block's access level and any copy bookkeeping. The
	// frame content and version are already in place.
	installCopy(d *DSM, b int, st *blockState, write bool)
	// localWriteUpgrade gives the strategy a chance to satisfy a
	// non-owner write fault locally, without protocol traffic. It
	// reports whether it did (LRC's multi-writer upgrade).
	localWriteUpgrade(d *DSM, b int, st *blockState) bool
	// ownerUpgraded is called when the owner begins a write upgrade of
	// block b (first write to a virgin block, or re-arming after a
	// downgrade), before the invalidation round starts.
	ownerUpgraded(d *DSM, b int, st *blockState)
	// atBarrier applies the protocol's synchronization-point rule to the
	// node's read-only copies.
	atBarrier(d *DSM)
}

// strategyFor maps a Protocol to its (stateless, shared) strategy.
func strategyFor(p Protocol) strategy {
	switch p {
	case Migratory:
		return migratoryStrategy{}
	case WriteInvalidate:
		return writeInvalidateStrategy{}
	case ImplicitInvalidate:
		return implicitInvalidateStrategy{}
	case LazyRelease:
		return lazyReleaseStrategy{}
	}
	panic("dsm: unknown protocol " + p.String())
}

// singleWriter collects the behavior all three paper protocols share:
// ownership is exclusive, a non-owner write fault always fetches, and
// read-copy bookkeeping is a plain roCopies entry.
type singleWriter struct{}

func (singleWriter) invalidateOnGrant() bool { return false }

func (singleWriter) installCopy(d *DSM, b int, st *blockState, write bool) {
	st.access = accRO
	d.roCopies = append(d.roCopies, int32(b))
}

func (singleWriter) localWriteUpgrade(d *DSM, b int, st *blockState) bool { return false }

func (singleWriter) ownerUpgraded(d *DSM, b int, st *blockState) {}

func (singleWriter) atBarrier(d *DSM) {
	d.roCopies = d.roCopies[:0]
}

// migratoryStrategy keeps a single copy of each page, moving it on every
// request.
type migratoryStrategy struct{ singleWriter }

func (migratoryStrategy) takesAway(write bool) bool { return true }
func (migratoryStrategy) shipsCopyset() bool        { return false }

// servedCopy is unreachable under migratory (every serve takes the page
// away); keep the publish mark correct anyway.
func (migratoryStrategy) servedCopy(d *DSM, b int, st *blockState, from kernel.NodeID) {
	st.snap = true
}

// writeInvalidateStrategy replicates read-only copies and explicitly
// invalidates them all when any node writes.
type writeInvalidateStrategy struct{ singleWriter }

func (writeInvalidateStrategy) takesAway(write bool) bool { return write }
func (writeInvalidateStrategy) shipsCopyset() bool        { return true }
func (writeInvalidateStrategy) invalidateOnGrant() bool   { return true }

func (writeInvalidateStrategy) servedCopy(d *DSM, b int, st *blockState, from kernel.NodeID) {
	// Remember the copy and downgrade ourselves so a future local write
	// faults and invalidates.
	st.copyset = appendUnique(st.copyset, from)
	if st.access == accRW {
		st.access = accRO
	}
	st.snap = true // published at st.ver; the next write re-twins
}

// implicitInvalidateStrategy replicates read-only copies that die,
// message-free, at the holder's next synchronization point.
type implicitInvalidateStrategy struct{ singleWriter }

func (implicitInvalidateStrategy) takesAway(write bool) bool { return write }
func (implicitInvalidateStrategy) shipsCopyset() bool        { return false }

func (implicitInvalidateStrategy) servedCopy(d *DSM, b int, st *blockState, from kernel.NodeID) {
	// Track nothing and keep our write access: the copy dies at the
	// requester's next synchronization point (the protocol's whole point).
	st.snap = true // published at st.ver; the next write re-twins
}

func (implicitInvalidateStrategy) atBarrier(d *DSM) {
	for _, b := range d.roCopies {
		st := &d.blocks[b]
		if !st.owner && st.access == accRO {
			// With diffs on the discarded copy is the next fetch's diff
			// base: under implicit-invalidate the same read-only pages
			// are re-fetched every iteration, and the diff against last
			// iteration's copy is exactly the owner's writes.
			st.access = accNone
			d.dropFrame(st, false)
		}
	}
	d.roCopies = d.roCopies[:0]
}

// lazyReleaseStrategy is home-based LRC: the home node never loses
// ownership, writers fault in their own writable copies (twinning the
// received content), and the interval's diffs are flushed to the home at
// barrier release (see lrc.go for the release/acquire machinery).
type lazyReleaseStrategy struct{}

func (lazyReleaseStrategy) takesAway(write bool) bool { return false }
func (lazyReleaseStrategy) shipsCopyset() bool        { return false }
func (lazyReleaseStrategy) invalidateOnGrant() bool   { return false }

func (lazyReleaseStrategy) servedCopy(d *DSM, b int, st *blockState, from kernel.NodeID) {
	// The home keeps its access whatever it was: concurrent writers are
	// legal, and staleness is handled by write notices at acquire.
	st.snap = true // published at st.ver; the next write re-twins
}

func (lazyReleaseStrategy) installCopy(d *DSM, b int, st *blockState, write bool) {
	if write {
		// Multi-writer install: make the copy writable immediately, with
		// a twin of the received content as the merge base. No other node
		// is told, no copies are invalidated — the diff flushed at the
		// next release carries exactly this interval's words.
		d.lrcBeginWrite(b, st)
		return
	}
	st.access = accRO
	d.roCopies = append(d.roCopies, int32(b))
}

func (lazyReleaseStrategy) localWriteUpgrade(d *DSM, b int, st *blockState) bool {
	if st.access != accRO {
		return false
	}
	// Read copy upgraded in place: twin the current content and write.
	// Zero messages — this is the false-sharing win over the
	// single-writer protocols, which would move or invalidate the page.
	d.lrcBeginWrite(b, st)
	return true
}

func (lazyReleaseStrategy) ownerUpgraded(d *DSM, b int, st *blockState) {
	// Home writes need no twin (the frame is the master copy) but must
	// appear in the interval's write notices like any other write.
	d.lrcDirty = append(d.lrcDirty, int32(b))
}

func (lazyReleaseStrategy) atBarrier(d *DSM) {
	// Copies survive synchronization points; only the write notices
	// applied at acquire (AtAcquire) invalidate them. The list is
	// bookkeeping for the other protocols, so just reset it.
	d.roCopies = d.roCopies[:0]
}
