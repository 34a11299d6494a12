package bench

import (
	"fmt"
	"io"

	"filaments"
	"filaments/internal/apps/fft"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/matmul"
	"filaments/internal/apps/mergesort"
)

// The four-protocol crossover experiment: every shipped DSM app under
// migratory, write-invalidate, implicit-invalidate, and lazy-release,
// across cluster sizes, with the protocol-revealing counters alongside
// the times. The point is to locate the crossovers: where the paper's
// implicit-invalidate stops winning and home-based LRC starts paying
// (false sharing), and where LRC's keep-it-local fork/join rule makes it
// the wrong choice entirely (recursive apps).

func init() {
	register("proto-x", "Protocol crossover: all four protocols across apps and cluster sizes", protoCrossover)
}

// protoList is the sweep order: the three paper protocols, then LRC.
var protoList = []filaments.Protocol{
	filaments.Migratory, filaments.WriteInvalidate, filaments.ImplicitInvalidate,
	filaments.LazyRelease,
}

// protoStats sums the protocol-revealing counters across the cluster.
type protoStats struct {
	faults, invals, merges, notices, twinKB int64
}

func gatherProto(cl *filaments.Cluster, nodes int) protoStats {
	var s protoStats
	for i := 0; i < nodes; i++ {
		st := cl.Runtime(i).DSM().Stats()
		s.faults += st.ReadFaults + st.WriteFaults
		s.invals += st.InvalsSent
		s.merges += st.LRCMerges
		s.notices += st.WriteNotices
		s.twinKB += st.TwinBytes / 1024
	}
	return s
}

func protoRow(w io.Writer, proto filaments.Protocol, secs float64, s protoStats) {
	fmt.Fprintf(w, "  %-20v %8.1f s   faults=%-6d invals=%-5d merges=%-5d notices=%-5d twins=%dKB\n",
		proto, secs, s.faults, s.invals, s.merges, s.notices, s.twinKB)
}

func protoCrossover(w io.Writer, o Options) {
	jn, ji := 256, 360
	fftN, fftLeaf := 1<<14, 1024
	msN, msLeaf := 1<<15, 2048
	mmN := 256
	if o.Quick {
		jn, ji = 128, 60
		fftN, fftLeaf = 1<<12, 256
		msN, msLeaf = 1<<13, 512
		mmN = 64
	}

	fmt.Fprintf(w, "Jacobi %dx%d, %d iters (aligned strips: one writer per page)\n", jn, jn, ji)
	for _, p := range []int{2, 4, 8} {
		fmt.Fprintf(w, " %d nodes:\n", p)
		for _, proto := range protoList {
			rep, _, cl := runDF("jacobi", p, under(proto), jacobi.Setup, jacobi.Config{N: jn, Iters: ji})
			protoRow(w, proto, rep.Seconds(), gatherProto(cl, p))
		}
	}
	fmt.Fprintf(w, " (aligned writers are implicit-invalidate's home turf: LRC pays diff\n")
	fmt.Fprintf(w, "  flushes every barrier for pages II re-fetches only when read)\n\n")

	fmt.Fprintf(w, "False sharing: %d writers ping-ponging one page, %d barriered rounds\n", 2, fsRounds(o))
	for _, proto := range protoList {
		secs, moves, merges := falseShare(proto, 2, fsRounds(o))
		fmt.Fprintf(w, "  %-20v %8.2f s   page moves=%-5d merges=%d\n", proto, secs, moves, merges)
	}
	fmt.Fprintf(w, " (the crossover: single-writer protocols move or invalidate the page on\n")
	fmt.Fprintf(w, "  every interleaved write; LRC twins locally and flushes one diff per\n")
	fmt.Fprintf(w, "  barrier, so its cost is flat in the write rate)\n\n")

	fmt.Fprintf(w, "Matmul %dx%d (read-shared inputs, strip-owned output)\n", mmN, mmN)
	for _, p := range []int{2, 4, 8} {
		fmt.Fprintf(w, " %d nodes:\n", p)
		for _, proto := range protoList {
			rep, _, cl := runDF("matmul", p, under(proto), matmul.Setup, matmul.Config{N: mmN})
			protoRow(w, proto, rep.Seconds(), gatherProto(cl, p))
		}
	}
	fmt.Fprintf(w, "\nFFT n=%d leaf=%d and mergesort n=%d leaf=%d on 4 nodes (fork/join)\n", fftN, fftLeaf, msN, msLeaf)
	for _, proto := range protoList {
		frep, _, fcl := runDF("fft", 4, under(proto), fft.Setup, fft.Config{N: fftN, Leaf: fftLeaf})
		fs := gatherProto(fcl, 4)
		mrep, _, mcl := runDF("mergesort", 4, under(proto), mergesort.Setup, mergesort.Config{N: msN, Leaf: msLeaf})
		ms := gatherProto(mcl, 4)
		fmt.Fprintf(w, "  %-20v fft %8.1f s (faults=%d)   mergesort %8.1f s (faults=%d)\n",
			proto, frep.Seconds(), fs.faults, mrep.Seconds(), ms.faults)
	}
	fmt.Fprintf(w, " (under lazy-release the runtime keeps fork/join filaments local — a task\n")
	fmt.Fprintf(w, "  ship is a sync edge the protocol does not flush on — so both recursive\n")
	fmt.Fprintf(w, "  apps degrade to sequential: the honest cost of barrier-only release\n")
	fmt.Fprintf(w, "  consistency, and the reason it is not the default anywhere)\n")
}

func fsRounds(o Options) int {
	if o.Quick {
		return 200
	}
	return 1000
}

// falseShare is the crossover microkernel: two nodes repeatedly update
// their own halves of ONE shared page inside barriered rounds. Every
// single-writer protocol serializes the interleaved writes through page
// moves or invalidation rounds; LRC lets both nodes write their twinned
// copies and reconciles at each barrier with one diff flush.
func falseShare(proto filaments.Protocol, nodes, rounds int) (secs float64, moves, merges int64) {
	cl := filaments.New(filaments.Config{Nodes: nodes, Protocol: proto})
	addr := cl.AllocOwned(8*64, 0)
	rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		per := 64 / rt.Nodes()
		for r := 0; r < rounds; r++ {
			for k := 0; k < per; k++ {
				slot := me*per + k
				e.WriteF64(addr+filaments.Addr(slot*8), float64(r))
			}
			e.Barrier()
		}
	})
	if err != nil {
		panic(err)
	}
	s := gatherProto(cl, nodes)
	var served int64
	for i := 0; i < nodes; i++ {
		served += cl.Runtime(i).DSM().Stats().Served
	}
	return rep.Seconds(), served, s.merges
}
