package exprtree

import (
	"fmt"
	"testing"

	"filaments"
)

// runDF runs Setup's program in the simulation on cfg.Nodes nodes under the
// paper's settings for it — migratory, front-of-queue wakeups — with
// stealing as given, and returns the report, the product and the cluster.
func runDF(t *testing.T, cfg Config, stealing bool) (*filaments.Report, [][]float64, *filaments.Cluster) {
	t.Helper()
	cl := filaments.New(filaments.Config{Nodes: cfg.Nodes, Stealing: stealing, WakeFront: true})
	prog, root := Setup(cl, cfg)
	rep, err := cl.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep, cl.PeekMatrix(root), cl
}

func matEqual(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("rows %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("[%d][%d] = %v, want %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

func TestSequentialMatchesReference(t *testing.T) {
	cfg := Config{Height: 4, N: 16}
	_, got := Sequential(cfg)
	if err := matEqual(got, Reference(cfg)); err != nil {
		t.Fatal(err)
	}
}

func TestCoarseGrainCorrect(t *testing.T) {
	cfg := Config{Height: 4, N: 16}
	want := Reference(cfg)
	for _, p := range []int{2, 4, 8} {
		cfg.Nodes = p
		_, got := CoarseGrain(cfg)
		if err := matEqual(got, want); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestDFCorrect(t *testing.T) {
	cfg := Config{Height: 4, N: 16}
	want := Reference(cfg)
	for _, p := range []int{1, 2, 4} {
		cfg.Nodes = p
		_, got, _ := runDF(t, cfg, false)
		if err := matEqual(got, want); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestDFStealingCorrect(t *testing.T) {
	cfg := Config{Height: 5, N: 12, Nodes: 4}
	want := Reference(cfg)
	_, got, _ := runDF(t, cfg, true)
	if err := matEqual(got, want); err != nil {
		t.Fatal(err)
	}
}

// The DF program must move many more messages than CG (single root
// filament + implicit data movement by page fault vs 2(p-1) transfers).
func TestDFSendsMoreMessagesThanCG(t *testing.T) {
	cfg := Config{Height: 5, N: 16, Nodes: 4}
	cgCl := newCountingRun(t, cfg, false)
	dfCl := newCountingRun(t, cfg, true)
	if dfCl <= cgCl*2 {
		t.Fatalf("DF frames %d not ≫ CG frames %d", dfCl, cgCl)
	}
}

func newCountingRun(t *testing.T, cfg Config, df bool) int64 {
	t.Helper()
	if df {
		_, _, cl := runDF(t, cfg, false)
		return cl.Network().Stats().FramesSent
	}
	// CoarseGrain does not return its cluster; measure via a fresh run
	// through the exported API and count from the report.
	rep, _ := CoarseGrain(cfg)
	return rep.Net.FramesSent
}

// Tail-end imbalance: the maximum possible speedup for height 7 is 3.85 on
// 4 nodes and 7.06 on 8; the measured speedup must stay below the cap.
func TestTailEndCap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{Height: 5, N: 24}
	seq, _ := Sequential(cfg)
	cfg.Nodes = 4
	df, _, _ := runDF(t, cfg, false)
	speedup := seq.Seconds() / df.Seconds()
	// Height 5: 31 multiplies; cap on 4 nodes = 31 / (1+1+1+2+4) = 3.44.
	if speedup > 3.45 {
		t.Fatalf("speedup %.2f exceeds the tail-end cap 3.44", speedup)
	}
	if speedup < 1.5 {
		t.Fatalf("speedup %.2f unreasonably low", speedup)
	}
}
