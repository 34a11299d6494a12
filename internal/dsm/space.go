// Package dsm implements the paper's multi-threaded distributed shared
// memory (§3): a paged shared address space replicated at the same
// locations on every node, with three page consistency protocols
// (migratory, write-invalidate, and the paper's new implicit-invalidate),
// page grouping, padded allocation, the Mirage anti-thrashing time window,
// and server-thread suspension on fault so communication overlaps
// computation.
package dsm

import (
	"fmt"

	"filaments/internal/kernel"
)

// Addr is a byte offset into the shared address space. The space is
// replicated at the same location on every node, so an Addr means the same
// thing everywhere (the paper's requirement for shared pointers).
type Addr int64

// PageSize is the protection granularity, matching SunOS on the paper's
// testbed.
const PageSize = 4096

const pageShift = 12

// Protocol selects the page consistency protocol for the whole space.
type Protocol int

const (
	// Migratory keeps a single copy of each page, moving it from node to
	// node as needed (read or write).
	Migratory Protocol = iota
	// WriteInvalidate allows replicated read-only copies that are all
	// explicitly invalidated when any node writes.
	WriteInvalidate
	// ImplicitInvalidate is the paper's new protocol: read-only copies are
	// implicitly discarded at every synchronization point, so no
	// invalidation messages are ever sent. Correct only for regular
	// problems with a stable, single-writer-per-page sharing pattern.
	ImplicitInvalidate
	// LazyRelease is home-based lazy release consistency, the post-1994
	// answer to false-sharing ping-pong: every block stays owned by its
	// home node, any number of nodes may write their own copies of the
	// same block concurrently (each diffing against a twin taken at the
	// first write), the diffs are flushed to the home at barrier release,
	// and write notices propagated with the release invalidate stale
	// copies at acquire. Correct for data-race-free barrier programs.
	LazyRelease
)

func (p Protocol) String() string {
	switch p {
	case Migratory:
		return "migratory"
	case WriteInvalidate:
		return "write-invalidate"
	case ImplicitInvalidate:
		return "implicit-invalidate"
	case LazyRelease:
		return "lazy-release"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ParseProtocol maps a protocol's name — its String form or the short
// spelling — to the Protocol. It is the only such mapping: every flag and
// job spec goes through it, and "no protocol named" is the caller's case
// to resolve (to an application's default) before calling.
func ParseProtocol(name string) (Protocol, error) {
	switch name {
	case "migratory":
		return Migratory, nil
	case "wi", "write-invalidate":
		return WriteInvalidate, nil
	case "ii", "implicit-invalidate":
		return ImplicitInvalidate, nil
	case "lrc", "lazy-release":
		return LazyRelease, nil
	}
	return 0, fmt.Errorf("unknown protocol %q (migratory | wi, write-invalidate | ii, implicit-invalidate | lrc, lazy-release)", name)
}

// Space is the cluster-wide description of the shared address space: the
// allocator plus per-page initial ownership and grouping. It is created
// once and shared (by reference) by every node's DSM. Allocation happens
// during program setup, deterministically, mirroring the paper's library
// routine that "allocates a data structure in global memory and
// automatically pads".
type Space struct {
	npages int
	brk    Addr

	// block is the protocol granularity: one or more pages grouped so a
	// request for any page fetches all of them (paper §3). pageBlock maps
	// page -> block; blockPages maps block -> page range.
	pageBlock  []int32
	blockStart []int32 // first page of each block
	blockLen   []int32 // pages in each block

	home []kernel.NodeID // initial owner per block

	dsms []*DSM // every node's DSM, for initial-state setup

	// monitor, when non-nil, observes accesses, transfers, and sync events
	// on every node (see Monitor in monitor.go).
	monitor Monitor
}

// NewSpace creates a shared address space of at most maxBytes (rounded up
// to whole pages).
func NewSpace(maxBytes int64) *Space {
	np := int((maxBytes + PageSize - 1) / PageSize)
	if np <= 0 {
		panic("dsm: empty space")
	}
	return &Space{
		npages:    np,
		pageBlock: make([]int32, np),
	}
}

// Pages returns the total number of pages in the space.
func (s *Space) Pages() int { return s.npages }

// Blocks returns the number of allocated protocol blocks.
func (s *Space) Blocks() int { return len(s.blockStart) }

// Used returns the number of allocated bytes.
func (s *Space) Used() Addr { return s.brk }

// AllocOpts controls placement of an allocation.
type AllocOpts struct {
	// Owner is the initial owner of all pages (ignored if OwnerByPage is
	// set). Default node 0, matching the paper's master-initialized data.
	Owner kernel.NodeID
	// OwnerByPage, if non-nil, gives the initial owner of the i-th page of
	// the allocation — used to distribute one strip per node, as the
	// paper's Jacobi program does.
	OwnerByPage func(page int) kernel.NodeID
	// GroupPages groups this many consecutive pages into one protocol
	// block (0 or 1 means no grouping). A group never spans an ownership
	// boundary; the allocator panics if OwnerByPage disagrees within a
	// group.
	GroupPages int
}

// Alloc reserves size bytes of shared memory, page-aligned, and returns its
// base address. Every allocation starts on a fresh page — this is the
// paper's automatic padding: distinct data structures never share a page.
func (s *Space) Alloc(size int64, opts AllocOpts) Addr {
	if size <= 0 {
		panic("dsm: Alloc of non-positive size")
	}
	base := s.brk
	if rem := base % PageSize; rem != 0 {
		base += PageSize - rem
	}
	npages := int((size + PageSize - 1) / PageSize)
	first := int(base >> pageShift)
	if first+npages > s.npages {
		panic(fmt.Sprintf("dsm: out of shared memory (need %d pages beyond page %d of %d)", npages, first, s.npages))
	}
	group := opts.GroupPages
	if group <= 1 {
		group = 1
	}
	for p := 0; p < npages; p += group {
		g := group
		if p+g > npages {
			g = npages - p
		}
		owner := opts.Owner
		if opts.OwnerByPage != nil {
			owner = opts.OwnerByPage(p)
			for q := 1; q < g; q++ {
				if opts.OwnerByPage(p+q) != owner {
					panic("dsm: page group spans an ownership boundary")
				}
			}
		}
		block := int32(len(s.blockStart))
		s.blockStart = append(s.blockStart, int32(first+p))
		s.blockLen = append(s.blockLen, int32(g))
		s.home = append(s.home, owner)
		for q := 0; q < g; q++ {
			s.pageBlock[first+p+q] = block
		}
		for _, d := range s.dsms {
			d.addBlock(block, owner)
		}
	}
	s.brk = base + Addr(npages)*PageSize
	return base
}

// PageOf returns the page index containing a.
func PageOf(a Addr) int { return int(a >> pageShift) }

// BlockOf returns the protocol block containing address a.
func (s *Space) BlockOf(a Addr) int { return int(s.pageBlock[a>>pageShift]) }

// HomeOf returns the initial owner (the directory node) of block b.
func (s *Space) HomeOf(b int) kernel.NodeID { return s.home[b] }

// blockBytes returns the byte extent [start, end) of block b.
func (s *Space) blockBytes(b int) (Addr, Addr) {
	start := Addr(s.blockStart[b]) << pageShift
	end := start + Addr(s.blockLen[b])*PageSize
	return start, end
}

// blockSize returns the size of block b in bytes.
func (s *Space) blockSize(b int) int { return int(s.blockLen[b]) * PageSize }
