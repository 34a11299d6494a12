package fft

import (
	"math"
	"testing"

	"filaments"
)

// runDF runs Setup's program in the simulation on cfg.Nodes nodes under
// the app table's settings for it — write-invalidate, front-of-queue
// wakeups — and returns the report and the spectrum.
func runDF(t *testing.T, cfg Config) (rep *filaments.Report, re, im []float64) {
	t.Helper()
	cl := filaments.New(filaments.Config{Nodes: cfg.Nodes, Protocol: filaments.WriteInvalidate, WakeFront: true})
	prog, reim := Setup(cl, cfg)
	rep, err := cl.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep, cl.PeekMatrix(reim[0])[0], cl.PeekMatrix(reim[1])[0]
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// The recursive FFT must agree with the naive DFT.
func TestReferenceMatchesNaiveDFT(t *testing.T) {
	cfg := Config{N: 256, Leaf: 32}
	re, im := input(cfg.N, 1)
	wantR, wantI := NaiveDFT(re, im)
	gotR, gotI := Reference(cfg)
	if d := maxDiff(gotR, wantR); d > 1e-9*float64(cfg.N) {
		t.Fatalf("re diverges from DFT by %g", d)
	}
	if d := maxDiff(gotI, wantI); d > 1e-9*float64(cfg.N) {
		t.Fatalf("im diverges from DFT by %g", d)
	}
}

func TestSequentialMatchesReference(t *testing.T) {
	cfg := Config{N: 1024, Leaf: 128}
	wr, wi := Reference(cfg)
	_, gr, gi := Sequential(cfg)
	if maxDiff(gr, wr) != 0 || maxDiff(gi, wi) != 0 {
		t.Fatal("sequential FFT diverges from reference (same algorithm)")
	}
}

// The DF program performs the identical floating-point operations in the
// identical order, so results are bit-exact across cluster sizes.
func TestDFBitExact(t *testing.T) {
	cfg := Config{N: 2048, Leaf: 256}
	wr, wi := Reference(cfg)
	for _, p := range []int{1, 2, 4} {
		cfg.Nodes = p
		_, gr, gi := runDF(t, cfg)
		if maxDiff(gr, wr) != 0 || maxDiff(gi, wi) != 0 {
			t.Fatalf("p=%d: DF FFT diverges", p)
		}
	}
}

func TestParsevalInvariant(t *testing.T) {
	// Energy is preserved up to the 1/N convention: sum|X|^2 = N * sum|x|^2.
	cfg := Config{N: 1024, Leaf: 128, Nodes: 2}
	re, im := input(cfg.N, 1)
	var inE float64
	for i := range re {
		inE += re[i]*re[i] + im[i]*im[i]
	}
	_, gr, gi := runDF(t, cfg)
	var outE float64
	for i := range gr {
		outE += gr[i]*gr[i] + gi[i]*gi[i]
	}
	if math.Abs(outE-float64(cfg.N)*inE) > 1e-6*outE {
		t.Fatalf("Parseval violated: out %g, want %g", outE, float64(cfg.N)*inE)
	}
}

func TestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{}
	seq, _, _ := Sequential(cfg)
	cfg.Nodes = 4
	df, _, _ := runDF(t, cfg)
	if s := seq.Seconds() / df.Seconds(); s < 1.5 {
		t.Fatalf("speedup on 4 nodes = %.2f", s)
	}
}
