package matmul

import (
	"fmt"
	"testing"

	"filaments"
)

func matEqual(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("rows %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("C[%d][%d] = %v, want %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// runDF runs Setup's program in the simulation on cfg.Nodes nodes under the
// paper's protocol for it, write-invalidate, and returns the report, the
// product and the cluster.
func runDF(t *testing.T, cfg Config) (*filaments.Report, [][]float64, *filaments.Cluster) {
	t.Helper()
	cl := filaments.New(filaments.Config{Nodes: cfg.Nodes, Protocol: filaments.WriteInvalidate})
	prog, cm := Setup(cl, cfg)
	rep, err := cl.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep, cl.PeekMatrix(cm), cl
}

func TestSequentialMatchesReference(t *testing.T) {
	cfg := Config{N: 48}
	_, got := Sequential(cfg)
	if err := matEqual(got, Reference(Config{N: 48})); err != nil {
		t.Fatal(err)
	}
}

func TestCoarseGrainCorrect(t *testing.T) {
	want := Reference(Config{N: 48})
	for _, p := range []int{2, 3, 4} {
		_, got := CoarseGrain(Config{N: 48, Nodes: p})
		if err := matEqual(got, want); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestDFCorrect(t *testing.T) {
	want := Reference(Config{N: 48})
	for _, p := range []int{1, 2, 4} {
		_, got, _ := runDF(t, Config{N: 48, Nodes: p})
		if err := matEqual(got, want); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// The DF page-request count is exactly the paper's formula: the p-1 slaves
// pull all of B and 1/p of A.
func TestDFPageRequestCount(t *testing.T) {
	const n, p = 128, 4
	_, _, cl := runDF(t, Config{N: n, Nodes: p})
	pagesPerMatrix := n * n * 8 / 4096
	want := int64((p - 1) * (pagesPerMatrix + pagesPerMatrix/p))
	served := cl.Runtime(0).DSM().Stats().Served
	if served != want {
		t.Fatalf("master served %d page requests, want %d", served, want)
	}
}

func TestSpeedupSane(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	seq, _ := Sequential(Config{N: 128})
	cg4, _ := CoarseGrain(Config{N: 128, Nodes: 4})
	df4, _, _ := runDF(t, Config{N: 128, Nodes: 4})
	s := seq.Seconds()
	if cgS := s / cg4.Seconds(); cgS < 2 || cgS > 4.2 {
		t.Errorf("CG speedup on 4 nodes = %.2f", cgS)
	}
	if dfS := s / df4.Seconds(); dfS < 1.5 || dfS > 4.2 {
		t.Errorf("DF speedup on 4 nodes = %.2f", dfS)
	}
}
