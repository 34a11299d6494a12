package filaments_test

import (
	"testing"

	"filaments"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/matmul"
)

// TestProtocolCrossCheck runs jacobi and matmul under every page
// consistency protocol on BOTH bindings — the deterministic simulation
// and the real-time UDP cluster — and requires bitwise-identical results
// against the sequential reference, plus a fully quiesced transport
// (Outstanding() == 0) after every run. The protocols move pages in
// completely different patterns (migration vs read-replication vs
// implicit invalidation), but both programs compute each output word
// from identical inputs in identical FP order, so any difference at all
// is a coherence bug, not roundoff.
func TestProtocolCrossCheck(t *testing.T) {
	const nodes = 2
	protos := []filaments.Protocol{
		filaments.Migratory, filaments.WriteInvalidate, filaments.ImplicitInvalidate,
		filaments.LazyRelease,
	}

	t.Run("jacobi", func(t *testing.T) {
		const n, iters = 32, 3
		want := jacobi.Reference(n, iters)
		for _, proto := range protos {
			proto := proto
			t.Run(proto.String(), func(t *testing.T) {
				cfg := jacobi.Config{N: n, Iters: iters, Nodes: nodes}
				if proto == filaments.Migratory {
					cfg.UseMigratory = true
				} else {
					cfg.Protocol = proto
				}
				_, simGrid, cl := jacobi.DF(cfg)
				compareGrids(t, "sim", simGrid, want)
				if out := cl.Outstanding(); out != 0 {
					t.Errorf("sim cluster has %d outstanding requests after Run", out)
				}
				_, udpGrid, ucl, err := jacobi.DFUDP(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareGrids(t, "udp", udpGrid, want)
				if out := ucl.Outstanding(); out != 0 {
					t.Errorf("udp cluster has %d outstanding requests after Run", out)
				}
			})
		}
	})

	// Page diffs must be strictly optional: one leg ships whole pages end
	// to end (every other UDP leg runs with diffs on, the default).
	t.Run("jacobi-whole-pages", func(t *testing.T) {
		const n, iters = 32, 3
		want := jacobi.Reference(n, iters)
		cfg := jacobi.Config{
			N: n, Iters: iters, Nodes: nodes,
			Protocol: filaments.ImplicitInvalidate,
			NoDiffs:  true,
		}
		_, udpGrid, ucl, err := jacobi.DFUDP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareGrids(t, "udp-whole-pages", udpGrid, want)
		if out := ucl.Outstanding(); out != 0 {
			t.Errorf("udp cluster has %d outstanding requests after Run", out)
		}
	})

	t.Run("matmul", func(t *testing.T) {
		const n = 32
		want := matmul.Reference(n)
		for _, proto := range protos {
			proto := proto
			t.Run(proto.String(), func(t *testing.T) {
				cfg := matmul.Config{N: n, Nodes: nodes}
				if proto == filaments.Migratory {
					cfg.UseMigratory = true
				} else {
					cfg.Protocol = proto
				}
				_, simC, cl := matmul.DF(cfg)
				compareGrids(t, "sim", simC, want)
				if out := cl.Outstanding(); out != 0 {
					t.Errorf("sim cluster has %d outstanding requests after Run", out)
				}
				_, udpC, ucl, err := matmul.DFUDP(cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareGrids(t, "udp", udpC, want)
				if out := ucl.Outstanding(); out != 0 {
					t.Errorf("udp cluster has %d outstanding requests after Run", out)
				}
			})
		}
	})
}

func compareGrids(t *testing.T, binding string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", binding, len(got), len(want))
	}
	bad := 0
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				if bad == 0 {
					t.Errorf("%s: [%d][%d] = %v, want %v (bitwise)", binding, i, j, got[i][j], want[i][j])
				}
				bad++
			}
		}
	}
	if bad > 1 {
		t.Errorf("%s: %d words differ in total", binding, bad)
	}
}
