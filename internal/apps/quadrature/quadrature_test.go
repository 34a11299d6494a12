package quadrature

import (
	"math"
	"testing"

	"filaments"
)

// runDF runs Setup's program in the simulation on cfg.Nodes nodes with load
// balancing on, as the paper ran it, and returns the report, the area
// and the cluster.
func runDF(t *testing.T, cfg Config) (*filaments.Report, float64, *filaments.Cluster) {
	t.Helper()
	cl := filaments.New(filaments.Config{Nodes: cfg.Nodes, Stealing: true, WakeFront: true})
	prog, area := Setup(cl, cfg)
	rep, err := cl.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep, *area, cl
}

func TestVariantsAgreeOnArea(t *testing.T) {
	cfg := Config{Tol: 1e-3} // coarse: fast tests
	want, evals := Reference(cfg)
	if evals == 0 || math.IsNaN(want) {
		t.Fatal("reference produced nothing")
	}
	_, seq := Sequential(cfg)
	if seq != want {
		t.Fatalf("sequential area %v != reference %v", seq, want)
	}
	for _, p := range []int{2, 4} {
		cfg.Nodes = p
		if _, cg := CoarseGrain(cfg); math.Abs(cg-want) > 1e-9*math.Abs(want) {
			t.Fatalf("p=%d CG area %v != %v", p, cg, want)
		}
		if _, df, _ := runDF(t, cfg); math.Abs(df-want) > 1e-9*math.Abs(want) {
			t.Fatalf("p=%d DF area %v != %v", p, df, want)
		}
		if _, bag := BagOfTasks(cfg, 64); math.Abs(bag-want) > 1e-9*math.Abs(want) {
			t.Fatalf("p=%d bag area %v != %v", p, bag, want)
		}
	}
}

// The engineered integrand concentrates work at the interval's ends, so
// static decomposition cannot beat ~2x no matter how many nodes.
func TestCGImbalancePlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{Tol: 1e-4}
	seq, _ := Sequential(cfg)
	cfg.Nodes = 8
	cg8, _ := CoarseGrain(cfg)
	s := seq.Seconds() / cg8.Seconds()
	if s > 2.2 {
		t.Fatalf("CG-8 speedup %.2f; the workload should cap it near 1.7", s)
	}
}

// DF with dynamic load balancing must beat the static CG decomposition
// decisively on 4+ nodes (the paper: 59.0s vs 133s on 4 nodes).
func TestDFBeatsCG(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{Tol: 1e-4, Nodes: 4}
	cg, _ := CoarseGrain(cfg)
	df, _, _ := runDF(t, cfg)
	if df.Seconds() > cg.Seconds()*0.7 {
		t.Fatalf("DF %.1fs vs CG %.1fs: dynamic balancing should win big",
			df.Seconds(), cg.Seconds())
	}
}

// Bag-of-tasks balances better than static CG but with worse absolute time
// than DF (paper §4.3).
func TestBagOfTasksTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{Tol: 1e-4, Nodes: 8}
	cg, _ := CoarseGrain(cfg)
	bag, _ := BagOfTasks(cfg, 256)
	df, _, _ := runDF(t, cfg)
	if bag.Seconds() >= cg.Seconds() {
		t.Fatalf("bag %.1fs should beat static CG %.1fs", bag.Seconds(), cg.Seconds())
	}
	if df.Seconds() >= bag.Seconds() {
		t.Fatalf("DF %.1fs should beat the centralized bag %.1fs", df.Seconds(), bag.Seconds())
	}
}

func TestStealingHappensInDF(t *testing.T) {
	cfg := Config{Tol: 1e-4, Nodes: 4}
	_, _, cl := runDF(t, cfg)
	var granted int64
	for i := 0; i < 4; i++ {
		granted += cl.Runtime(i).Stats().StealsGranted
	}
	if granted == 0 {
		t.Fatal("no steals on a workload engineered for imbalance")
	}
}
