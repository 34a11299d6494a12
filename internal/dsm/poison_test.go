package dsm_test

import (
	"math"
	"testing"

	"filaments"
	"filaments/internal/apps"
	"filaments/internal/dsm"
)

// poisonHost is either binding, as the poisoned runs need it.
type poisonHost interface {
	filaments.Host
	AllocOwned(size int64, owner int) filaments.Addr
	PeekF64(a filaments.Addr) float64
}

// onBothBindings runs body on a simulated cluster (whole pages) and on a
// UDP cluster (twin-and-diff shipping), three nodes each.
func onBothBindings(t *testing.T, proto dsm.Protocol, body func(t *testing.T, h poisonHost, run func(filaments.Program))) {
	const nodes = 3
	t.Run("sim", func(t *testing.T) {
		cl := filaments.New(filaments.Config{Nodes: nodes, Protocol: proto})
		body(t, cl, func(p filaments.Program) {
			if _, err := cl.Run(p); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("udp", func(t *testing.T) {
		cl, err := filaments.NewUDPCluster(filaments.UDPConfig{Nodes: nodes, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		body(t, cl, func(p filaments.Program) {
			if _, err := cl.Run(p); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestRecycledBuffersCarryNoState runs a multi-writer kernel and Jacobi
// under all four protocols on both bindings with every recycled buffer
// poisoned on its way into the free list, and requires the plain-Go
// reference's results bit for bit. Pages nobody ever wrote must still read
// zero after their frames have been through the list.
func TestRecycledBuffersCarryNoState(t *testing.T) {
	defer dsm.PoisonFreedBuffers()()
	for _, proto := range []dsm.Protocol{dsm.Migratory, dsm.WriteInvalidate, dsm.ImplicitInvalidate, dsm.LazyRelease} {
		t.Run(proto.String(), func(t *testing.T) {
			t.Run("writeshare", func(t *testing.T) { onBothBindings(t, proto, writeshare) })
			t.Run("jacobi", func(t *testing.T) { onBothBindings(t, proto, jacobi) })
		})
	}
}

func jacobi(t *testing.T, h poisonHost, run func(filaments.Program)) {
	app, _ := apps.ByName("jacobi")
	p := apps.Params{N: 48, Iters: 6}
	prog, res := app.Setup(h, p)
	run(prog)
	if bad := app.Mismatches(res.Collect(h.PeekF64), app.Reference(p)); bad != 0 {
		t.Errorf("%d result words differ from the reference", bad)
	}
}

// writeshare: every node writes its own words of every page, a barrier,
// every node reads a neighbour's words and one word of a page nobody
// writes, a barrier — so frames, twins, shadows and diffs all turn over
// every round.
func writeshare(t *testing.T, h poisonHost, run func(filaments.Program)) {
	const (
		pages  = 4
		words  = filaments.PageSize / 8
		rounds = 12
	)
	n := h.Nodes()
	value := func(r, p, w int) float64 { return float64(r*pages*words + p*words + w + 1) }
	var base, virgin [pages]filaments.Addr
	for p := range base {
		base[p] = h.AllocOwned(filaments.PageSize, p%n)
		virgin[p] = h.AllocOwned(filaments.PageSize, p%n)
	}
	sums := make([]float64, n)
	zeros := make([]float64, n)
	run(func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		e.Barrier()
		for r := 0; r < rounds; r++ {
			for p := range base {
				for w := me; w < words; w += 4 * n {
					e.WriteF64(base[p]+filaments.Addr(8*w), value(r, p, w))
				}
			}
			e.Barrier()
			from := (me + 1 + r%(n-1)) % n
			for p := range base {
				sums[me] += e.ReadF64(base[p] + filaments.Addr(8*from))
				zeros[me] += math.Abs(e.ReadF64(virgin[p] + filaments.Addr(8*r)))
			}
			e.Barrier()
		}
	})
	for me := 0; me < n; me++ {
		var want float64
		for r := 0; r < rounds; r++ {
			for p := 0; p < pages; p++ {
				want += value(r, p, (me+1+r%(n-1))%n)
			}
		}
		if sums[me] != want {
			t.Errorf("node %d read sum %v, reference %v", me, sums[me], want)
		}
		if zeros[me] != 0 {
			t.Errorf("node %d read %v from pages nobody wrote", me, zeros[me])
		}
	}
	for p := range base {
		for w := 0; w < words; w++ {
			want := 0.0
			if w%(4*n) < n {
				want = value(rounds-1, p, w)
			}
			if got := h.PeekF64(base[p] + filaments.Addr(8*w)); got != want {
				t.Fatalf("page %d word %d is %v, reference %v", p, w, got, want)
			}
		}
	}
}
