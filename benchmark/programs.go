package main

import (
	"math"
	"math/rand"

	"filaments"
	"filaments/internal/cost"
)

// The node programs the workloads run. They live here, the way examples/
// keeps its own, so the benchmark is a client of the public filaments
// API only and an internal/apps rename cannot move a benchmark number.
// Each program has a plain-Go reference next to it; every repetition is
// verified against it.

// host is the slice of *filaments.Cluster and *filaments.UDPCluster the
// programs allocate and verify through.
type host interface {
	AllocOwned(size int64, owner int) filaments.Addr
	AllocMatrixOwned(rows, cols, owner int) filaments.Matrix
	PeekF64(a filaments.Addr) float64
	PeekMatrix(m filaments.Matrix) [][]float64
	Outstanding() int
}

// --- Jacobi iteration (iterative filaments, three pools, Reduce(Max)). ---

type jacobiCfg struct {
	n, iters, nodes int
	seed            int64
}

// jacobiInit is the initial grid: a hot top edge, cold sides and bottom,
// and a seeded uniform [0,1) interior, so every edge page changes in
// every sweep and a page diff is never trivially empty.
func jacobiInit(c jacobiCfg) [][]float64 {
	rng := rand.New(rand.NewSource(c.seed))
	g := make([][]float64, c.n)
	for i := range g {
		g[i] = make([]float64, c.n)
		for j := range g[i] {
			switch {
			case i == 0:
				g[i][j] = 100
			case i < c.n-1 && j > 0 && j < c.n-1:
				g[i][j] = rng.Float64()
			}
		}
	}
	return g
}

// jacobiReference runs the iteration in plain Go and returns the final
// grid and the last sweep's residual. The DF program evaluates the same
// expression over the same inputs in the same order, so both compare
// bitwise.
func jacobiReference(c jacobiCfg) ([][]float64, float64) {
	src, dst := jacobiInit(c), jacobiInit(c)
	var residual float64
	for it := 0; it < c.iters; it++ {
		residual = 0
		for i := 1; i < c.n-1; i++ {
			for j := 1; j < c.n-1; j++ {
				v := 0.25 * (src[i-1][j] + src[i+1][j] + src[i][j-1] + src[i][j+1])
				residual = math.Max(residual, math.Abs(v-src[i][j]))
				dst[i][j] = v
			}
		}
		src, dst = dst, src
	}
	return src, residual
}

// jacobiRun is one verified Jacobi run on h.
type jacobiRun struct {
	cfg      jacobiCfg
	ga, gb   filaments.Matrix
	residual float64 // node 0's last reduction result
}

func newJacobi(h host, c jacobiCfg) *jacobiRun {
	return &jacobiRun{cfg: c, ga: h.AllocMatrixOwned(c.n, c.n, 0), gb: h.AllocMatrixOwned(c.n, c.n, 0)}
}

// stripRows returns the interior rows [lo, hi) node k updates: its
// n/p-row strip, so that on power-of-two clusters strip boundaries are
// page boundaries and no page has two writers.
func stripRows(k, n, p int) (lo, hi int) {
	per := n / p
	lo, hi = k*per, (k+1)*per
	if k == p-1 {
		hi = n
	}
	return max(lo, 1), min(hi, n-1)
}

// program is the SPMD node program: node 0 initialises both grids (the
// other nodes acquire their strips by first-touch faults, as in the
// paper), then every node sweeps its strip with one filament per point
// in three pools — the strip's first page of rows, its last, and the
// rest — so only the first two fault and the third overlaps the fetches.
func (j *jacobiRun) program(sp *spanSink) filaments.Program {
	c := j.cfg
	n := c.n
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		ns := sp.node(rt)
		tRun := ns.now()
		me := rt.ID()
		t0 := ns.now()
		if me == 0 {
			init := jacobiInit(c)
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					e.WriteF64(j.ga.Addr(i, k), init[i][k])
					e.WriteF64(j.gb.Addr(i, k), init[i][k])
				}
			}
		}
		e.Barrier()
		ns.span("init", t0)

		src, dst := j.ga, j.gb
		var maxDiff float64
		point := func(e *filaments.Exec, a filaments.Args) {
			i, k := int(a[0]), int(a[1])
			v := 0.25 * (e.ReadF64(src.Addr(i-1, k)) + e.ReadF64(src.Addr(i+1, k)) +
				e.ReadF64(src.Addr(i, k-1)) + e.ReadF64(src.Addr(i, k+1)))
			maxDiff = math.Max(maxDiff, math.Abs(v-e.ReadF64(src.Addr(i, k))))
			e.WriteF64(dst.Addr(i, k), v)
			e.Compute(cost.JacobiPointCost)
		}
		lo, hi := stripRows(me, n, c.nodes)
		rowsPerPage := max(filaments.PageSize/(8*n), 1)
		topEnd := min(lo+rowsPerPage-lo%rowsPerPage, hi)
		botStart := max(hi-1-(hi-1)%rowsPerPage, topEnd)
		for _, pool := range []struct {
			name   string
			r0, r1 int
		}{{"top", lo, topEnd}, {"bottom", botStart, hi}, {"interior", topEnd, botStart}} {
			p := rt.NewPool(pool.name)
			for i := pool.r0; i < pool.r1; i++ {
				for k := 1; k < n-1; k++ {
					p.Add(e, point, filaments.Args{int64(i), int64(k)})
				}
			}
		}
		for it := 0; it < c.iters; it++ {
			maxDiff = 0
			t0 = ns.now()
			rt.RunPools(e)
			ns.span("runpools", t0)
			t0 = ns.now()
			r := e.Reduce(maxDiff, filaments.Max)
			ns.span("reduce", t0)
			if me == 0 {
				j.residual = r
			}
			src, dst = dst, src
		}
		ns.root(tRun)
	}
}

// grid copies the final grid out of the cluster.
func (j *jacobiRun) grid(h host) [][]float64 {
	if j.cfg.iters%2 == 1 {
		return h.PeekMatrix(j.gb)
	}
	return h.PeekMatrix(j.ga)
}

// verify compares the final grid and residual bitwise with the reference.
func (j *jacobiRun) verify(h host, want [][]float64, residual float64) string {
	if !gridsEqual(j.grid(h), want) {
		return "jacobi grid differs from the reference"
	}
	if math.Float64bits(j.residual) != math.Float64bits(residual) {
		return "jacobi residual differs from the reference"
	}
	return ""
}

func gridsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// --- Adaptive quadrature (fork/join filaments, stealing). ---

type quadCfg struct {
	tol      float64
	maxDepth int
	seed     int64
}

const quadA, quadB = 0.0, 24.0

// quadNeedles places the integrand's two near-singular needles. The seed
// shifts them by at most 1e-4, which changes the inputs without changing
// the amount of work by more than a fraction of a percent.
func quadNeedles(seed int64) (left, right float64) {
	rng := rand.New(rand.NewSource(seed))
	return 0.05 + 1e-4*rng.Float64(), 23.95 - 1e-4*rng.Float64()
}

// quadF is the paper-shaped integrand: a smooth background plus needles
// by both endpoints, so static decomposition is badly imbalanced.
func quadF(x, left, right float64) float64 {
	return math.Sin(x) + 2 +
		0.006/((x-left)*(x-left)+3e-5) +
		0.012/((x-right)*(x-right)+2e-5)
}

// quadStep evaluates one interval: the Simpson estimate, whether it is
// accepted, and the two new midpoint values its children need.
func quadStep(c quadCfg, f func(float64) float64, lo, hi, fa, fb, fm float64, depth int) (simp, lm, rm float64, done bool) {
	m := (lo + hi) / 2
	lm, rm = f((lo+m)/2), f((m+hi)/2)
	trap := (hi - lo) * (fa + fb) / 2
	simp = (hi - lo) * (fa + 4*lm + 2*fm + 4*rm + fb) / 12
	done = depth <= 0 || math.Abs(simp-trap) < c.tol*(hi-lo)/(quadB-quadA)
	return
}

// quadReference integrates recursively in plain Go, returning the area
// and the number of intervals visited (one fork/join task each).
func quadReference(c quadCfg) (area float64, tasks int64) {
	left, right := quadNeedles(c.seed)
	f := func(x float64) float64 { return quadF(x, left, right) }
	var rec func(lo, hi, fa, fb, fm float64, depth int) float64
	rec = func(lo, hi, fa, fb, fm float64, depth int) float64 {
		tasks++
		simp, lm, rm, done := quadStep(c, f, lo, hi, fa, fb, fm, depth)
		if done {
			return simp
		}
		m := (lo + hi) / 2
		return rec(lo, m, fa, fm, lm, depth-1) + rec(m, hi, fm, fb, rm, depth-1)
	}
	return rec(quadA, quadB, f(quadA), f(quadB), f((quadA+quadB)/2), c.maxDepth), tasks
}

const fnQuad = 1

type quadRun struct {
	cfg  quadCfg
	area float64 // node 0's result
}

// program forks one filament per interval; everything a filament needs
// travels in its arguments, so the DSM does nothing.
func (q *quadRun) program(sp *spanSink) filaments.Program {
	c := q.cfg
	left, right := quadNeedles(c.seed)
	bits := func(x float64) int64 { return int64(math.Float64bits(x)) }
	val := func(b int64) float64 { return math.Float64frombits(uint64(b)) }
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		ns := sp.node(rt)
		tRun := ns.now()
		rt.RegisterFJ(fnQuad, func(e *filaments.Exec, a filaments.Args) float64 {
			f := func(x float64) float64 {
				e.Compute(cost.QuadEvalCost)
				return quadF(x, left, right)
			}
			lo, hi, fa, fb, fm, depth := val(a[0]), val(a[1]), val(a[2]), val(a[3]), val(a[4]), int(a[5])
			simp, lm, rm, done := quadStep(c, f, lo, hi, fa, fb, fm, depth)
			if done {
				return simp
			}
			m := (lo + hi) / 2
			r := e.Runtime()
			j := r.NewJoin()
			r.Fork(e, j, fnQuad, filaments.Args{bits(lo), bits(m), bits(fa), bits(fm), bits(lm), int64(depth - 1)})
			r.Fork(e, j, fnQuad, filaments.Args{bits(m), bits(hi), bits(fm), bits(fb), bits(rm), int64(depth - 1)})
			return j.Wait(e)
		})
		var root filaments.Args
		if rt.ID() == 0 {
			f := func(x float64) float64 { return quadF(x, left, right) }
			root = filaments.Args{bits(quadA), bits(quadB), bits(f(quadA)), bits(f(quadB)),
				bits(f((quadA + quadB) / 2)), int64(c.maxDepth)}
		}
		// Node 0 ships its first fork at once; without this barrier it can
		// reach a node that has not registered the function yet.
		t0 := ns.now()
		e.Barrier()
		ns.span("init", t0)
		t0 = ns.now()
		v := rt.RunForkJoin(e, fnQuad, root)
		ns.span("forkjoin", t0)
		if rt.ID() == 0 {
			q.area = v
		}
		ns.root(tRun)
	}
}

// verify allows rounding only: steal timing reorders the summation.
func (q *quadRun) verify(want float64) string {
	if math.Abs(q.area-want) > 1e-9*math.Abs(want) {
		return "quadrature area differs from the reference by more than 1e-9"
	}
	return ""
}

// --- Writeshare (multi-writer pages, two barriers per round). ---

type wsCfg struct {
	nodes, rounds int
	seed          int64
}

const (
	wsPages     = 16
	wsPageWords = filaments.PageSize / 8
	wsChunk     = 64 // words; chunk c of a page belongs to node c mod nodes
	wsStride    = 8  // each owner writes every 8th word of its chunks
)

// wsValue is what round r stores in word w of page p.
func wsValue(seed int64, r, p, w int) float64 {
	return float64(seed%1000) + float64(r) + float64(p*wsPageWords+w)/float64(wsPages*wsPageWords)
}

// wsReadTarget is the neighbour whose chunks node me reads in round r.
func wsReadTarget(me, r, nodes int) int { return (me + 1 + r%(nodes-1)) % nodes }

// wsReference replays the rounds in plain Go: the final pages and every
// node's running sum of the words it read.
func wsReference(c wsCfg) (pages [][]float64, sums []float64) {
	pages = make([][]float64, wsPages)
	for p := range pages {
		pages[p] = make([]float64, wsPageWords)
	}
	sums = make([]float64, c.nodes)
	for r := 0; r < c.rounds; r++ {
		for p := 0; p < wsPages; p++ {
			for w := 0; w < wsPageWords; w += wsStride {
				pages[p][w] = wsValue(c.seed, r, p, w)
			}
		}
		for me := 0; me < c.nodes; me++ {
			t := wsReadTarget(me, r, c.nodes)
			for p := 0; p < wsPages; p++ {
				for ch := t; ch < wsPageWords/wsChunk; ch += c.nodes {
					sums[me] += pages[p][ch*wsChunk]
				}
			}
		}
	}
	return pages, sums
}

type wsRun struct {
	cfg   wsCfg
	pages [wsPages]filaments.Addr
	sums  []float64 // per node; each node writes only its own entry
}

// newWriteshare homes page p on node p mod nodes, so every node is home
// to some pages and a remote writer of the rest.
func newWriteshare(h host, c wsCfg) *wsRun {
	w := &wsRun{cfg: c, sums: make([]float64, c.nodes)}
	for p := range w.pages {
		w.pages[p] = h.AllocOwned(filaments.PageSize, p%c.nodes)
	}
	return w
}

// program: every page has every node as a writer of disjoint words, then
// every node reads words a neighbour just wrote.
func (w *wsRun) program(sp *spanSink) filaments.Program {
	c := w.cfg
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		ns := sp.node(rt)
		tRun := ns.now()
		me := rt.ID()
		// A start line: no page request may reach a node before its own
		// main thread has run, or the handler reads block tables that
		// nothing the race detector can see orders after Alloc.
		t0 := ns.now()
		e.Barrier()
		ns.span("init", t0)
		var sum float64
		for r := 0; r < c.rounds; r++ {
			t0 = ns.now()
			for p, base := range w.pages {
				for ch := me; ch < wsPageWords/wsChunk; ch += c.nodes {
					for k := 0; k < wsChunk; k += wsStride {
						word := ch*wsChunk + k
						e.WriteF64(base+filaments.Addr(8*word), wsValue(c.seed, r, p, word))
					}
				}
			}
			ns.span("access", t0)
			t0 = ns.now()
			e.Barrier()
			ns.span("barrier", t0)
			t0 = ns.now()
			t := wsReadTarget(me, r, c.nodes)
			for _, base := range w.pages {
				for ch := t; ch < wsPageWords/wsChunk; ch += c.nodes {
					sum += e.ReadF64(base + filaments.Addr(8*ch*wsChunk))
				}
			}
			ns.span("access", t0)
			t0 = ns.now()
			e.Barrier()
			ns.span("barrier", t0)
		}
		w.sums[me] = sum
		ns.root(tRun)
	}
}

// final copies the pages out of the cluster.
func (w *wsRun) final(h host) [][]float64 {
	out := make([][]float64, wsPages)
	for p, base := range w.pages {
		out[p] = make([]float64, wsPageWords)
		for word := range out[p] {
			out[p][word] = h.PeekF64(base + filaments.Addr(8*word))
		}
	}
	return out
}

// verify compares the final pages and the read sums bitwise.
func (w *wsRun) verify(h host, pages [][]float64, sums []float64) string {
	if !gridsEqual(w.final(h), pages) {
		return "writeshare pages differ from the reference"
	}
	for i := range sums {
		if math.Float64bits(w.sums[i]) != math.Float64bits(sums[i]) {
			return "writeshare read sums differ from the reference"
		}
	}
	return ""
}
