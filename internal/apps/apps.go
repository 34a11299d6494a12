// Package apps is the one place a DF application is named. Each row of
// the table binds a name to the application's package — its Setup on any
// filaments.Host, its plain-Go Reference, its sim-only baselines — and to
// everything a caller needs to run it without knowing which application
// it is: the cluster settings the paper ran it under, how the shared
// flag/job parameters map onto its Config, how its result is compared,
// and how cmd/dfcheck sizes it. cmd/dfrun, cmd/dfnode, the daemon,
// internal/check and the cross-binding tests all look applications up
// here, so adding one is a package under this directory plus a row.
package apps

import (
	"math"
	"strings"

	"filaments"
	"filaments/internal/apps/exprtree"
	"filaments/internal/apps/fft"
	"filaments/internal/apps/jacobi"
	"filaments/internal/apps/matmul"
	"filaments/internal/apps/mergesort"
	"filaments/internal/apps/quadrature"
	"filaments/internal/apps/racer"
	"filaments/internal/dsm"
)

// Params is the problem shape as the command-line flags and the daemon's
// JobSpec carry it; zero fields take the application's own defaults. Each
// row's adapter picks the fields its application understands.
type Params struct {
	// N is the problem dimension: grid, matrix or array size. Quadrature
	// has no size, so there N caps the recursion depth.
	N int
	// Iters is the iteration count (jacobi).
	Iters int
	// Height is the tree height (exprtree).
	Height int
	// Leaf is the sequential-leaf size (fft, mergesort).
	Leaf int
	// Tol is the relative tolerance (quadrature).
	Tol float64
}

// Result locates a program's answer after its run: the shared matrices
// that hold it, in comparison order, then the scalar node 0 stores
// outside the DSM, if any.
type Result struct {
	Shared []filaments.Matrix
	Scalar *float64
}

// words returns how many shared float64s the result spans.
func (r Result) words() int {
	n := 0
	for _, m := range r.Shared {
		n += m.Rows * m.Cols
	}
	return n
}

// addr returns the address of the i'th shared word.
func (r Result) addr(i int) filaments.Addr {
	for _, m := range r.Shared {
		if n := m.Rows * m.Cols; i >= n {
			i -= n
			continue
		}
		return m.Base + filaments.Addr(i)*8
	}
	panic("apps: result word out of range")
}

// Collect reads the whole result out of a finished run through peek (a
// host's PeekF64), in the order Reference flattens it.
func (r Result) Collect(peek func(filaments.Addr) float64) []float64 {
	out := make([]float64, 0, r.words()+1)
	for i, n := 0, r.words(); i < n; i++ {
		out = append(out, peek(r.addr(i)))
	}
	if r.Scalar != nil {
		out = append(out, *r.Scalar)
	}
	return out
}

// Baseline runs one of an application's sim-only comparison programs
// (sequential, coarse-grain message passing, bag of tasks) on nodes
// nodes.
type Baseline func(p Params, nodes int) *filaments.Report

// App is one row of the table.
type App struct {
	// Name is what -app flags and job specs say.
	Name string
	// Protocol, Stealing and WakeFront are the cluster settings the
	// application runs under unless the caller overrides them: the
	// paper's protocol choice for it, receiver-initiated load balancing,
	// and front-of-queue page wakeups (the fork/join setting).
	Protocol  filaments.Protocol
	Stealing  bool
	WakeFront bool
	// Setup places the application on h — its allocations, in SPMD order
	// — and returns the node program and where its result will be.
	Setup func(h filaments.Host, p Params) (filaments.Program, Result)
	// Reference computes the same result in plain Go, flattened in
	// Result order. Nil for the seeded-bug programs, whose result is the
	// bug.
	Reference func(p Params) []float64
	// Tol is the relative tolerance results are compared within; zero
	// means bitwise. Only a program whose floating-point evaluation order
	// depends on scheduling (quadrature's stolen subtrees) needs one.
	Tol float64
	// Baselines are the sim-only variants by -variant name.
	Baselines map[string]Baseline
	// Check is the problem cmd/dfcheck runs: the checker observes every
	// typed access, so it trades scale for coverage. CheckStealing turns
	// load balancing on there even where the default is off, so shipped
	// tasks are checked too.
	Check         Params
	CheckStealing bool
	// UsesDSM is false for a program that never touches shared memory.
	UsesDSM bool
	// MirageOffSafe reports whether the Check problem terminates on this
	// cluster size under proto with the Mirage anti-thrashing window
	// disabled (see check.Sweep). Nil means always.
	MirageOffSafe func(proto filaments.Protocol, nodes int) bool
}

// ProtocolNamed resolves a -protocol flag or job-spec value: the empty
// string is the application's own default, anything else goes through the
// one parser.
func (a *App) ProtocolNamed(name string) (filaments.Protocol, error) {
	if name == "" {
		return a.Protocol, nil
	}
	return dsm.ParseProtocol(name)
}

func (a *App) equal(got, want float64) bool {
	if a.Tol == 0 {
		return got == want
	}
	return math.Abs(got-want) <= a.Tol*math.Abs(want)
}

// Mismatches counts the words of got that differ from want under the
// application's comparison. A result of the wrong length lines up with
// nothing, so all of it counts.
func (a *App) Mismatches(got, want []float64) int {
	if len(got) != len(want) {
		return len(got) + len(want)
	}
	bad := 0
	for i := range got {
		if !a.equal(got[i], want[i]) {
			bad++
		}
	}
	return bad
}

// Checked wraps prog so the result is verified in-program, for a host
// that holds only one node of the cluster and so cannot peek the whole
// result afterwards (cmd/dfnode). After a barrier every node compares
// its 1/p share of the shared words — read through the DSM like any other
// access — and node 0 the scalar against want (Reference's output); the
// per-node counts are combined by a Sum reduction (the sum of small
// integers is exact and order-independent in float64), so every node
// stores the cluster-wide total in *mismatches.
func (a *App) Checked(prog filaments.Program, res Result, want []float64, mismatches *int) filaments.Program {
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		prog(rt, e)
		e.Barrier()
		me, p, w := rt.ID(), rt.Nodes(), res.words()
		var bad float64
		for i := me * w / p; i < (me+1)*w/p; i++ {
			if !a.equal(e.ReadF64(res.addr(i)), want[i]) {
				bad++
			}
		}
		if res.Scalar != nil && me == 0 && !a.equal(*res.Scalar, want[w]) {
			bad++
		}
		*mismatches = int(e.Reduce(bad, filaments.Sum))
	}
}

// All returns the shipped applications in table order.
func All() []*App { return shipped }

// ByName finds a shipped application or a seeded-bug program by name.
func ByName(name string) (*App, bool) {
	for _, list := range [][]*App{shipped, seeded} {
		for _, a := range list {
			if a.Name == name {
				return a, true
			}
		}
	}
	return nil, false
}

// Names lists the shipped applications' names for flag help and error
// text.
func Names() string {
	names := make([]string, len(shipped))
	for i, a := range shipped {
		names[i] = a.Name
	}
	return strings.Join(names, " | ")
}

// The adapters below lift an application package's typed entry points —
// Setup(h, Config) (Program, result), Reference(Config), the baselines —
// into the table's uniform shape.

func flat(rows ...[]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

func inMatrix[C any](cfg func(Params, int) C, setup func(filaments.Host, C) (filaments.Program, filaments.Matrix)) func(filaments.Host, Params) (filaments.Program, Result) {
	return func(h filaments.Host, p Params) (filaments.Program, Result) {
		prog, m := setup(h, cfg(p, 0))
		return prog, Result{Shared: []filaments.Matrix{m}}
	}
}

func inScalar[C any](cfg func(Params, int) C, setup func(filaments.Host, C) (filaments.Program, *float64)) func(filaments.Host, Params) (filaments.Program, Result) {
	return func(h filaments.Host, p Params) (filaments.Program, Result) {
		prog, v := setup(h, cfg(p, 0))
		return prog, Result{Scalar: v}
	}
}

func baseline[C, R any](cfg func(Params, int) C, run func(C) (*filaments.Report, R)) Baseline {
	return func(p Params, nodes int) *filaments.Report {
		rep, _ := run(cfg(p, nodes))
		return rep
	}
}

func jacobiCfg(p Params, nodes int) jacobi.Config {
	return jacobi.Config{N: p.N, Iters: p.Iters, Nodes: nodes}
}
func matmulCfg(p Params, nodes int) matmul.Config { return matmul.Config{N: p.N, Nodes: nodes} }
func quadCfg(p Params, nodes int) quadrature.Config {
	return quadrature.Config{Tol: p.Tol, MaxDepth: p.N, Nodes: nodes}
}
func exprtreeCfg(p Params, nodes int) exprtree.Config {
	return exprtree.Config{Height: p.Height, N: p.N, Nodes: nodes}
}
func fftCfg(p Params, nodes int) fft.Config { return fft.Config{N: p.N, Leaf: p.Leaf, Nodes: nodes} }
func mergesortCfg(p Params, nodes int) mergesort.Config {
	return mergesort.Config{N: p.N, Leaf: p.Leaf, Nodes: nodes}
}

// The dfcheck grid/matrix sizes are chosen so that, on power-of-two
// clusters, each node's write strip covers whole pages (64 rows × 64 cols
// × 8 B = 8 rows per 4 KB page): write false sharing would otherwise
// livelock the window-off legs of the sweep.
func alignedWrites(nodes int) bool {
	return nodes > 0 && 64%nodes == 0 && (64/nodes)%8 == 0
}

// invalidateSafe: read-sharing under migratory thrashes without the
// window (reads take the page away); replicated read-only copies under
// the invalidate protocols do not. Lazy release consistency is always
// safe: ownership never moves (home-based), so there is nothing to
// thrash, and misaligned write strips just become concurrent twinned
// writers.
func invalidateSafe(proto filaments.Protocol, nodes int) bool {
	if proto == filaments.LazyRelease {
		return true
	}
	return proto != filaments.Migratory && alignedWrites(nodes)
}

var shipped = []*App{
	{Name: "jacobi", Protocol: filaments.ImplicitInvalidate, UsesDSM: true,
		Setup:     inMatrix(jacobiCfg, jacobi.Setup),
		Reference: func(p Params) []float64 { return flat(jacobi.Reference(jacobiCfg(p, 0))...) },
		Baselines: map[string]Baseline{
			"seq": baseline(jacobiCfg, jacobi.Sequential), "cg": baseline(jacobiCfg, jacobi.CoarseGrain)},
		Check: Params{N: 64, Iters: 3}, MirageOffSafe: invalidateSafe},
	{Name: "matmul", Protocol: filaments.WriteInvalidate, UsesDSM: true,
		Setup:     inMatrix(matmulCfg, matmul.Setup),
		Reference: func(p Params) []float64 { return flat(matmul.Reference(matmulCfg(p, 0))...) },
		Baselines: map[string]Baseline{
			"seq": baseline(matmulCfg, matmul.Sequential), "cg": baseline(matmulCfg, matmul.CoarseGrain)},
		Check: Params{N: 64}, MirageOffSafe: invalidateSafe},
	// Stealing makes quadrature's summation order nondeterministic under
	// real time: compare within rounding, not bitwise.
	{Name: "quadrature", Protocol: filaments.Migratory, Stealing: true, WakeFront: true, Tol: 1e-9,
		Setup: inScalar(quadCfg, quadrature.Setup),
		Reference: func(p Params) []float64 {
			area, _ := quadrature.Reference(quadCfg(p, 0))
			return []float64{area}
		},
		Baselines: map[string]Baseline{
			"seq": baseline(quadCfg, quadrature.Sequential), "cg": baseline(quadCfg, quadrature.CoarseGrain),
			"bag": baseline(quadCfg, func(c quadrature.Config) (*filaments.Report, float64) {
				return quadrature.BagOfTasks(c, 0)
			})},
		Check: Params{Tol: 5e-3, N: 10}},
	{Name: "exprtree", Protocol: filaments.Migratory, WakeFront: true, UsesDSM: true,
		Setup:     inMatrix(exprtreeCfg, exprtree.Setup),
		Reference: func(p Params) []float64 { return flat(exprtree.Reference(exprtreeCfg(p, 0))...) },
		Baselines: map[string]Baseline{
			"seq": baseline(exprtreeCfg, exprtree.Sequential), "cg": baseline(exprtreeCfg, exprtree.CoarseGrain)},
		Check: Params{Height: 3, N: 8}, CheckStealing: true},
	{Name: "fft", Protocol: filaments.WriteInvalidate, WakeFront: true, UsesDSM: true,
		Setup: func(h filaments.Host, p Params) (filaments.Program, Result) {
			prog, reim := fft.Setup(h, fftCfg(p, 0))
			return prog, Result{Shared: reim[:]}
		},
		Reference: func(p Params) []float64 { return flat(fft.Reference(fftCfg(p, 0))) },
		Baselines: map[string]Baseline{"seq": func(p Params, nodes int) *filaments.Report {
			rep, _, _ := fft.Sequential(fftCfg(p, nodes))
			return rep
		}},
		// Leaf 512 = exactly one 4 KB page, so leaf transforms and
		// bit-reversal strips are single-writer-per-page under the
		// invalidate protocols.
		Check: Params{N: 2048, Leaf: 512},
		// Migratory thrashes without the window: the bit-reversal phase has
		// every node reading the whole transform array, and each read tears
		// the page away from the previous reader.
		MirageOffSafe: func(proto filaments.Protocol, nodes int) bool { return proto != filaments.Migratory }},
	{Name: "mergesort", Protocol: filaments.Migratory, WakeFront: true, UsesDSM: true,
		Setup:     inMatrix(mergesortCfg, mergesort.Setup),
		Reference: func(p Params) []float64 { return mergesort.Reference(mergesortCfg(p, 0)) },
		Baselines: map[string]Baseline{"seq": baseline(mergesortCfg, mergesort.Sequential)},
		Check:     Params{N: 2048, Leaf: 512}, CheckStealing: true},
}

// seeded are the deliberately broken programs cmd/dfcheck's self-test
// must catch: the write/read race and its write/write variant.
var seeded = []*App{
	{Name: "racer", Protocol: filaments.WriteInvalidate, UsesDSM: true,
		Setup: inScalar(func(Params, int) racer.Config { return racer.Config{} }, racer.Setup)},
	{Name: "racer-overlap", Protocol: filaments.WriteInvalidate, UsesDSM: true,
		Setup: inScalar(func(Params, int) racer.Config { return racer.Config{OverlapWriters: true} }, racer.Setup)},
}
