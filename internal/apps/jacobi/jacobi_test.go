package jacobi

import (
	"fmt"
	"testing"

	"filaments"
)

func gridEqual(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("rows %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("grid[%d][%d] = %v, want %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// runDF runs Setup's program in the simulation on cfg.Nodes nodes under
// proto and returns the report, the final grid and the cluster.
func runDF(t *testing.T, cfg Config, proto filaments.Protocol) (*filaments.Report, [][]float64, *filaments.Cluster) {
	t.Helper()
	cl := filaments.New(filaments.Config{Nodes: cfg.Nodes, Protocol: proto})
	prog, final := Setup(cl, cfg)
	rep, err := cl.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep, cl.PeekMatrix(final), cl
}

func TestSequentialMatchesReference(t *testing.T) {
	_, got := Sequential(Config{N: 32, Iters: 20})
	if err := gridEqual(got, Reference(Config{N: 32, Iters: 20})); err != nil {
		t.Fatal(err)
	}
}

func TestCoarseGrainCorrect(t *testing.T) {
	want := Reference(Config{N: 64, Iters: 30})
	for _, p := range []int{2, 4} {
		_, got := CoarseGrain(Config{N: 64, Iters: 30, Nodes: p})
		if err := gridEqual(got, want); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestDFCorrectAllProtocols(t *testing.T) {
	want := Reference(Config{N: 64, Iters: 20})
	for _, proto := range []filaments.Protocol{
		filaments.ImplicitInvalidate, filaments.WriteInvalidate,
	} {
		for _, p := range []int{1, 2, 4} {
			_, got, _ := runDF(t, Config{N: 64, Iters: 20, Nodes: p}, proto)
			if err := gridEqual(got, want); err != nil {
				t.Fatalf("proto=%v p=%d: %v", proto, p, err)
			}
		}
	}
}

// Uneven strips put two writers on one page; the protocols must still be
// correct (just slower).
func TestDFCorrectOddNodes(t *testing.T) {
	want := Reference(Config{N: 64, Iters: 10})
	_, got, _ := runDF(t, Config{N: 64, Iters: 10, Nodes: 3}, filaments.WriteInvalidate)
	if err := gridEqual(got, want); err != nil {
		t.Fatal(err)
	}
}

func TestDFSinglePoolCorrect(t *testing.T) {
	want := Reference(Config{N: 64, Iters: 20})
	_, got, _ := runDF(t, Config{N: 64, Iters: 20, Nodes: 4, SinglePool: true}, filaments.ImplicitInvalidate)
	if err := gridEqual(got, want); err != nil {
		t.Fatal(err)
	}
}

// Implicit-invalidate must send no invalidation messages; write-invalidate
// must send them every iteration.
func TestInvalidationTraffic(t *testing.T) {
	invals := func(proto filaments.Protocol) int64 {
		_, _, cl := runDF(t, Config{N: 64, Iters: 10, Nodes: 4}, proto)
		var n int64
		for i := 0; i < 4; i++ {
			n += cl.Runtime(i).DSM().Stats().InvalsSent
		}
		return n
	}
	if n := invals(filaments.ImplicitInvalidate); n != 0 {
		t.Fatalf("implicit-invalidate sent %d invalidations", n)
	}
	if n := invals(filaments.WriteInvalidate); n == 0 {
		t.Fatal("write-invalidate sent no invalidations")
	}
}

// The paper's per-iteration fault structure (Figure 10): after the initial
// strip acquisition, the master and tail nodes fault once per iteration
// and interior nodes twice.
func TestSteadyStateFaultStructure(t *testing.T) {
	const n, p, iters = 256, 4, 40
	_, _, cl := runDF(t, Config{N: n, Iters: iters, Nodes: p}, filaments.ImplicitInvalidate)
	for k := 0; k < p; k++ {
		rf := cl.Runtime(k).DSM().Stats().ReadFaults
		perIter := 1.0
		if k != 0 && k != p-1 {
			perIter = 2.0
		}
		// Allow slack for the initial strip pulls.
		min := int64(perIter * float64(iters-5))
		max := int64(perIter*float64(iters)) + 80
		if rf < min || rf > max {
			t.Errorf("node %d: %d read faults over %d iters, want ~%v/iter", k, rf, iters, perIter)
		}
	}
}

// Overlap: the three-pool program must beat the single-pool program (the
// paper measures 9%/21% on 4/8 nodes).
func TestOverlapBeatsSinglePool(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	multi, _, _ := runDF(t, Config{N: 256, Iters: 60, Nodes: 4}, filaments.ImplicitInvalidate)
	single, _, _ := runDF(t, Config{N: 256, Iters: 60, Nodes: 4, SinglePool: true}, filaments.ImplicitInvalidate)
	if multi.Elapsed >= single.Elapsed {
		t.Fatalf("multi-pool %.2fs not faster than single-pool %.2fs",
			multi.Seconds(), single.Seconds())
	}
}

// Implicit-invalidate must beat write-invalidate (Figure 11 vs Figure 5:
// 3%/6% on 4/8 nodes).
func TestImplicitInvalidateBeatsWriteInvalidate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ii, _, _ := runDF(t, Config{N: 256, Iters: 60, Nodes: 4}, filaments.ImplicitInvalidate)
	wi, _, _ := runDF(t, Config{N: 256, Iters: 60, Nodes: 4}, filaments.WriteInvalidate)
	if ii.Elapsed >= wi.Elapsed {
		t.Fatalf("implicit-invalidate %.2fs not faster than write-invalidate %.2fs",
			ii.Seconds(), wi.Seconds())
	}
}

// Automatic pool clustering (the paper's future-work extension) must be
// correct and cluster each node's filaments into a handful of pools.
func TestAutoPoolsCorrect(t *testing.T) {
	want := Reference(Config{N: 64, Iters: 20})
	_, got, cl := runDF(t, Config{N: 64, Iters: 20, Nodes: 4, AutoPools: true}, filaments.ImplicitInvalidate)
	if err := gridEqual(got, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		// After adaptive consolidation only the faulting signatures keep
		// their own pools: 1 for the edge nodes, 2 for interior nodes.
		np := cl.Runtime(i).AutoPoolCount()
		want := 2
		if i == 0 || i == 3 {
			want = 1
		}
		if np != want {
			t.Fatalf("node %d: %d signature pools after consolidation, want %d", i, np, want)
		}
	}
}

// Auto pools must retain the overlap benefit: beat the single-pool layout
// once the one-time clustering cost (a noisier initial distribution, then
// consolidation) has amortized.
func TestAutoPoolsOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	auto, _, _ := runDF(t, Config{N: 256, Iters: 150, Nodes: 4, AutoPools: true}, filaments.ImplicitInvalidate)
	single, _, _ := runDF(t, Config{N: 256, Iters: 150, Nodes: 4, SinglePool: true}, filaments.ImplicitInvalidate)
	if auto.Elapsed >= single.Elapsed {
		t.Fatalf("auto pools %.2fs not faster than single pool %.2fs",
			auto.Seconds(), single.Seconds())
	}
}

// After the sharing pattern stabilizes, the runtime must have consolidated
// the non-faulting pools: one pool per faulting edge plus one local pool.
func TestAutoPoolsConsolidate(t *testing.T) {
	_, _, cl := runDF(t, Config{N: 256, Iters: 20, Nodes: 4, AutoPools: true}, filaments.ImplicitInvalidate)
	for i := 1; i < 3; i++ { // interior nodes: 2 edge pools + 1 local
		order := cl.Runtime(i).PoolOrder()
		if len(order) != 3 {
			t.Fatalf("node %d: %d pools after consolidation: %v", i, len(order), order)
		}
	}
}
