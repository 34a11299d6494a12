// Package matmul implements the paper's matrix multiplication experiment
// (§4.1, Figure 4): C = A×B for n×n matrices, as a sequential program, a
// coarse-grain message-passing program, and a Distributed Filaments
// program with one run-to-completion filament per point of C under the
// write-invalidate protocol.
//
// In the DF program A and B live on the master (node 0), so the p-1 slave
// nodes pull all of B and 1/p of A by page fault: (p-1)·(n²·8/4096·(1+1/p))
// requests — 4032 for n=512, p=8, exactly the count the paper reports —
// all serviced by the master, which saturates the network and explains the
// speedup drop-off at 4 and 8 nodes. C is striped so its writes are local.
//
// The CG program broadcasts B, sends each slave its strip of A, and
// gathers C strips; its distribution cost (the paper measured 5.1 s on 8
// nodes) bounds its speedup.
package matmul

import (
	"filaments"
	"filaments/internal/cost"
	"filaments/internal/msg"
	"filaments/internal/simnet"
)

// Config is the problem shape. Cluster-level settings — protocol,
// tracing, monitors — belong to the cluster the caller builds.
type Config struct {
	// N is the matrix dimension (the paper uses 512).
	N int
	// Nodes is the cluster size of the Sequential and CoarseGrain
	// baselines; Setup takes it from its host.
	Nodes int
	// Seed for the baselines' simulation (default 1).
	Seed int64
}

func (c *Config) defaults() {
	if c.N == 0 {
		c.N = 512
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
}

// initA and initB give the deterministic input values.
func initA(i, j int) float64 { return float64((i+2*j)%10) - 4 }
func initB(i, j int) float64 { return float64((3*i+j)%7) - 3 }

// rowCost is the virtual compute time of one row of inner products: n
// points at n multiply-adds each is charged per point below.
func pointCost(n int) filaments.Duration {
	return filaments.Duration(n) * cost.MatmulMACost
}

// Reference computes C = A×B in plain Go, for verification.
func Reference(cfg Config) [][]float64 {
	cfg.defaults()
	n := cfg.N
	a, b := localInit(n)
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}

func localInit(n int) (a, b [][]float64) {
	a = make([][]float64, n)
	b = make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		b[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = initA(i, j)
			b[i][j] = initB(i, j)
		}
	}
	return a, b
}

// Sequential runs the single-node program: plain local arrays, no DSM, no
// messages — a distinct program, as in the paper.
func Sequential(cfg Config) (*filaments.Report, [][]float64) {
	cfg.defaults()
	n := cfg.N
	var out [][]float64
	c := filaments.New(filaments.Config{Nodes: 1, Seed: cfg.Seed})
	rep, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		a, b := localInit(n)
		out = make([][]float64, n)
		for i := 0; i < n; i++ {
			out[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[i][k] * b[k][j]
				}
				out[i][j] = s
				e.Compute(pointCost(n))
			}
		}
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

// CoarseGrain runs the explicit message-passing program: one heavyweight
// process per node over unreliable datagrams.
func CoarseGrain(cfg Config) (*filaments.Report, [][]float64) {
	cfg.defaults()
	n, p := cfg.N, cfg.Nodes
	if p == 1 {
		return Sequential(cfg)
	}
	var out [][]float64
	cl := filaments.New(filaments.Config{Nodes: p, Seed: cfg.Seed})
	const (
		tagB = iota
		tagA
		tagC
	)
	rowBytes := n * 8
	rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		mx := msg.New(rt.Node(), rt.Endpoint())
		lo, hi := strip(me, n, p)
		var a, b [][]float64
		if me == 0 {
			a, b = localInit(n)
			// Distribute: broadcast all of B, send each slave its strip
			// of A.
			mx.Broadcast(tagB, b, n*rowBytes)
			for k := 1; k < p; k++ {
				klo, khi := strip(k, n, p)
				mx.Send(simnet.NodeID(k), tagA, a[klo:khi], (khi-klo)*rowBytes)
			}
		} else {
			b = mx.Recv(e.Thread(), 0, tagB).([][]float64)
			a = mx.Recv(e.Thread(), 0, tagA).([][]float64)
			lo, hi = 0, hi-lo // index into the received strip rows
		}
		cpart := make([][]float64, hi-lo)
		for i := lo; i < hi; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[i][k] * b[k][j]
				}
				row[j] = s
				e.Compute(pointCost(n))
			}
			cpart[i-lo] = row
			e.Flush()
		}
		if me == 0 {
			out = make([][]float64, n)
			copy(out, cpart)
			for k := 1; k < p; k++ {
				klo, khi := strip(k, n, p)
				part := mx.Recv(e.Thread(), simnet.NodeID(k), tagC).([][]float64)
				copy(out[klo:khi], part)
			}
		} else {
			mx.Send(0, tagC, cpart, (hi-lo)*rowBytes)
		}
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

// Setup allocates A, B (on the master) and C (striped) on h and returns
// the Distributed Filaments node program — one RTC filament per point of
// C — with C. Every binding runs exactly this code, and the product is
// bitwise-identical to Reference's (identical inner-product evaluation
// order), so callers verify with exact comparison. The paper runs it
// under write-invalidate (the app table's default).
func Setup(h filaments.Host, cfg Config) (filaments.Program, filaments.Matrix) {
	cfg.defaults()
	n, p := cfg.N, h.Nodes()
	a := filaments.AllocMatrix(h, n, n, filaments.AllocOpts{})
	b := filaments.AllocMatrix(h, n, n, filaments.AllocOpts{})
	cm := filaments.AllocMatrix(h, n, n, filaments.StripedRows(n, n, p))
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		d := rt.DSM()
		if me == 0 {
			// Master initializes A and B (local writes; untimed fill, as
			// initialization is excluded from the paper's sequential
			// figure too).
			e.NoteWrite(filaments.Range{Lo: a.Addr(0, 0), Hi: a.Addr(n-1, n-1) + 8})
			e.NoteWrite(filaments.Range{Lo: b.Addr(0, 0), Hi: b.Addr(n-1, n-1) + 8})
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					d.WriteF64(e.Thread(), a.Addr(i, j), initA(i, j))
					d.WriteF64(e.Thread(), b.Addr(i, j), initB(i, j))
				}
			}
		}
		// Barrier 1: A and B initialized before anyone computes.
		e.Barrier()
		lo, hi := strip(me, n, p)
		// Declared extents for the memory-model checker: every node reads
		// all of A and B and writes its own strip of C.
		e.NoteRead(filaments.Range{Lo: a.Addr(0, 0), Hi: a.Addr(n-1, n-1) + 8})
		e.NoteRead(filaments.Range{Lo: b.Addr(0, 0), Hi: b.Addr(n-1, n-1) + 8})
		e.NoteWrite(filaments.Range{Lo: cm.Addr(lo, 0), Hi: cm.Addr(hi-1, n-1) + 8})
		pool := rt.NewPool("cpoints")
		fn := func(e *filaments.Exec, args filaments.Args) {
			i, j := int(args[0]), int(args[1])
			var s float64
			for k := 0; k < n; k++ {
				s += e.ReadF64(a.Addr(i, k)) * e.ReadF64(b.Addr(k, j))
			}
			e.WriteF64(cm.Addr(i, j), s)
			e.Compute(pointCost(n))
		}
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				pool.Add(e, fn, filaments.Args{int64(i), int64(j)})
			}
		}
		rt.RunPools(e)
		// Barrier 2: all of C computed before the master would print it.
		e.Barrier()
	}, cm
}

// strip returns the row range [lo, hi) node k computes.
func strip(k, n, p int) (int, int) {
	per := n / p
	lo := k * per
	hi := lo + per
	if k == p-1 {
		hi = n
	}
	return lo, hi
}
