package mergesort

import (
	"sort"
	"testing"
	"testing/quick"

	"filaments"
)

// runDF runs Setup's program in the simulation on cfg.Nodes nodes under
// the app table's settings for it — migratory, front-of-queue wakeups —
// with stealing as given, and returns the report and the array.
func runDF(t *testing.T, cfg Config, stealing bool) (*filaments.Report, []float64) {
	t.Helper()
	cl := filaments.New(filaments.Config{Nodes: cfg.Nodes, Stealing: stealing, WakeFront: true})
	prog, arr := Setup(cl, cfg)
	rep, err := cl.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return rep, cl.PeekMatrix(arr)[0]
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSequentialMatchesReference(t *testing.T) {
	cfg := Config{N: 4096, Leaf: 256}
	_, got := Sequential(cfg)
	if !equal(got, Reference(cfg)) {
		t.Fatal("sequential sort wrong")
	}
}

func TestDFCorrect(t *testing.T) {
	cfg := Config{N: 4096, Leaf: 256}
	want := Reference(cfg)
	for _, p := range []int{1, 2, 4} {
		cfg.Nodes = p
		_, got := runDF(t, cfg, false)
		if !equal(got, want) {
			t.Fatalf("p=%d: sort wrong", p)
		}
	}
}

func TestDFStealing(t *testing.T) {
	cfg := Config{N: 4096, Leaf: 256, Nodes: 4}
	if _, got := runDF(t, cfg, true); !equal(got, Reference(cfg)) {
		t.Fatal("sort wrong with stealing")
	}
}

// Property: any (size, leaf, seed) combination sorts correctly on 2 nodes.
func TestDFSortProperty(t *testing.T) {
	f := func(n uint16, leafShift uint8, seed int64) bool {
		size := 512 + int(n)%3584
		leaf := 64 << (leafShift % 3)
		cfg := Config{N: size, Leaf: leaf, Nodes: 2, Seed: seed%1000 + 1}
		_, got := runDF(t, cfg, false)
		if !sort.Float64sAreSorted(got) {
			return false
		}
		return equal(got, Reference(cfg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := Config{}
	seq, _ := Sequential(cfg)
	cfg.Nodes = 4
	df, _ := runDF(t, cfg, false)
	s := seq.Seconds() / df.Seconds()
	if s < 1.5 {
		t.Fatalf("speedup on 4 nodes = %.2f", s)
	}
}
