// Package quadrature implements the paper's adaptive quadrature experiment
// (§4.3, Figure 6): integrating a function over an interval by recursive
// bisection until the trapezoid and Simpson estimates agree.
//
// The integrand has sharp features near both ends of the interval, so the
// recursion is much deeper there — the workload imbalance the paper
// engineered. The coarse-grain program splits the interval statically into
// p pieces and suffers that imbalance badly; a bag-of-tasks variant
// balances well but pays a centralized-bag price; the DF fork/join program
// with receiver-initiated load balancing gets both locality and balance.
package quadrature

import (
	"math"

	"filaments"
	"filaments/internal/cost"
	"filaments/internal/msg"
	"filaments/internal/simnet"
)

// interval is the bag-of-tasks work unit: one subinterval, or the Done
// sentinel that retires a slave.
type interval struct {
	A, B float64
	Done bool
}

// Config is the problem shape. Cluster-level settings — stealing,
// tracing, monitors — belong to the cluster the caller builds.
type Config struct {
	// A, B is the interval; the paper integrates an interval of length 24.
	A, B float64
	// Tol is the relative tolerance driving recursion depth.
	Tol float64
	// Nodes is the cluster size of the Sequential, CoarseGrain and
	// BagOfTasks baselines; Setup takes it from its host.
	Nodes int
	// MaxDepth caps recursion (safety net; the tolerance terminates first).
	MaxDepth int
	// Seed for the baselines' simulation.
	Seed int64
}

func (c *Config) defaults() {
	if c.B == 0 && c.A == 0 {
		c.B = 24
	}
	if c.Tol == 0 {
		c.Tol = 1e-5
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 40
	}
}

// f is the integrand: smooth background plus near-singular needles by both
// endpoints, which concentrate the adaptive work in the extreme
// subintervals (paper: "the two nodes evaluating the extreme intervals
// initially contain most of the work").
// The weights are tuned so the work distribution over eighths of [0,24]
// matches the coarse-grain speedups in Figure 6: roughly 59% of the
// evaluations in the rightmost eighth, 35% in the leftmost, and the
// remainder spread thin — which caps static p-way decomposition at
// speedup ≈ 1.5–1.7 no matter how large p grows.
func f(x float64) float64 {
	return math.Sin(x) + 2 +
		0.006/((x-0.05)*(x-0.05)+3e-5) +
		0.012/((x-23.95)*(x-23.95)+2e-5)
}

// evalCost is the virtual time of one integrand evaluation.
const evalCost = cost.QuadEvalCost

// area integrates [a,b] adaptively, charging eval costs to e (nil e means
// plain Go, for Reference). fa, fb, fm are f(a), f(b), f((a+b)/2).
// Returns the area and the number of evaluations performed.
type evaluator struct {
	e     *filaments.Exec
	evals int64
	tol   float64
	whole float64
}

func (ev *evaluator) f(x float64) float64 {
	ev.evals++
	if ev.e != nil {
		ev.e.Compute(evalCost)
	}
	return f(x)
}

// serial integrates [a,b] without forking.
func (ev *evaluator) serial(a, b, fa, fb, fm float64, depth int) float64 {
	m := (a + b) / 2
	lm := ev.f((a + m) / 2)
	rm := ev.f((m + b) / 2)
	trap := (b - a) * (fa + fb) / 2
	simp := (b - a) * (fa + 4*lm + 2*fm + 4*rm + fb) / 12
	if depth <= 0 || math.Abs(simp-trap) < ev.tol*(b-a)/ev.whole {
		return simp
	}
	return ev.serial(a, m, fa, fm, lm, depth-1) + ev.serial(m, b, fm, fb, rm, depth-1)
}

// Reference integrates in plain Go and returns (area, evaluations).
func Reference(cfg Config) (float64, int64) {
	cfg.defaults()
	ev := &evaluator{tol: cfg.Tol, whole: cfg.B - cfg.A}
	fa, fb := ev.f(cfg.A), ev.f(cfg.B)
	fm := ev.f((cfg.A + cfg.B) / 2)
	return ev.serial(cfg.A, cfg.B, fa, fb, fm, cfg.MaxDepth), ev.evals
}

// Sequential runs the distinct single-node program.
func Sequential(cfg Config) (*filaments.Report, float64) {
	cfg.defaults()
	var out float64
	c := filaments.New(filaments.Config{Nodes: 1, Seed: cfg.Seed})
	rep, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		ev := &evaluator{e: e, tol: cfg.Tol, whole: cfg.B - cfg.A}
		fa, fb := ev.f(cfg.A), ev.f(cfg.B)
		fm := ev.f((cfg.A + cfg.B) / 2)
		out = ev.serial(cfg.A, cfg.B, fa, fb, fm, cfg.MaxDepth)
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

// CoarseGrain statically assigns one of p equal subintervals to each node
// — the paper's load-imbalanced baseline.
func CoarseGrain(cfg Config) (*filaments.Report, float64) {
	cfg.defaults()
	p := cfg.Nodes
	if p == 1 {
		return Sequential(cfg)
	}
	var out float64
	cl := filaments.New(filaments.Config{Nodes: p, Seed: cfg.Seed})
	rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		w := (cfg.B - cfg.A) / float64(p)
		a := cfg.A + float64(me)*w
		b := a + w
		if me == p-1 {
			b = cfg.B
		}
		ev := &evaluator{e: e, tol: cfg.Tol, whole: cfg.B - cfg.A}
		fa, fb := ev.f(a), ev.f(b)
		fm := ev.f((a + b) / 2)
		part := ev.serial(a, b, fa, fb, fm, cfg.MaxDepth)
		total := e.Reduce(part, filaments.Sum)
		if me == 0 {
			out = total
		}
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

// BagOfTasks is the paper's second coarse-grain variant: the master holds
// a bag of small fixed subintervals; slaves repeatedly fetch one, solve it
// adaptively, and return the area. Balance is good but every task costs a
// round trip to the centralized bag.
func BagOfTasks(cfg Config, tasks int) (*filaments.Report, float64) {
	cfg.defaults()
	p := cfg.Nodes
	if tasks == 0 {
		tasks = 512
	}
	var out float64
	cl := filaments.New(filaments.Config{Nodes: p, Seed: cfg.Seed})
	const (
		tagGet = iota
		tagWork
		tagResult
	)
	rep, err := cl.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		me := rt.ID()
		mx := msg.New(rt.Node(), rt.Endpoint())
		if me == 0 {
			// Master: serve the bag, collect areas.
			w := (cfg.B - cfg.A) / float64(tasks)
			next := 0
			var sum float64
			finished := 0
			for finished < p-1 {
				src, _ := mx.RecvAny(e.Thread(), tagGet)
				if next < tasks {
					a := cfg.A + float64(next)*w
					b := a + w
					if next == tasks-1 {
						b = cfg.B
					}
					next++
					mx.Send(src, tagWork, interval{A: a, B: b}, 20)
				} else {
					mx.Send(src, tagWork, interval{Done: true}, 20)
					finished++
				}
			}
			for k := 1; k < p; k++ {
				sum += mx.Recv(e.Thread(), simnet.NodeID(k), tagResult).(float64)
			}
			out = sum
		} else {
			ev := &evaluator{e: e, tol: cfg.Tol, whole: cfg.B - cfg.A}
			var sum float64
			for {
				mx.Send(0, tagGet, me, 20)
				iv := mx.Recv(e.Thread(), 0, tagWork).(interval)
				if iv.Done {
					break
				}
				fa, fb := ev.f(iv.A), ev.f(iv.B)
				fm := ev.f((iv.A + iv.B) / 2)
				sum += ev.serial(iv.A, iv.B, fa, fb, fm, cfg.MaxDepth)
			}
			mx.Send(0, tagResult, sum, 20)
		}
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

const fnQuad = 1

// Setup returns the fork/join Filaments node program and where node 0
// leaves the area. All information travels in the filament arguments (the
// paper notes this program does not use the DSM), so nothing is allocated
// on the host. The paper runs it with receiver-initiated load balancing on (the
// app table's default; the cluster's Stealing setting is the paper's
// programmer-controllable switch). With stealing, steal-race timing makes
// the summation order nondeterministic under real time, so there the area
// agrees with Reference only to rounding and callers compare within a
// tolerance.
func Setup(_ filaments.Host, cfg Config) (filaments.Program, *float64) {
	cfg.defaults()
	out := new(float64)
	bits := func(x float64) int64 { return int64(math.Float64bits(x)) }
	val := func(b int64) float64 { return math.Float64frombits(uint64(b)) }
	return func(rt *filaments.Runtime, e *filaments.Exec) {
		// Filament arguments carry the interval and the already-computed
		// endpoint/midpoint values — "all the information is contained in
		// the function parameters" — so the eval count matches the serial
		// recursion exactly.
		quad := func(e *filaments.Exec, a filaments.Args) float64 {
			lo, hi := val(a[0]), val(a[1])
			fa, fb, fm := val(a[2]), val(a[3]), val(a[4])
			depth := int(a[5])
			ev := &evaluator{e: e, tol: cfg.Tol, whole: cfg.B - cfg.A}
			m := (lo + hi) / 2
			lm := ev.f((lo + m) / 2)
			rm := ev.f((m + hi) / 2)
			trap := (hi - lo) * (fa + fb) / 2
			simp := (hi - lo) * (fa + 4*lm + 2*fm + 4*rm + fb) / 12
			if depth <= 0 || math.Abs(simp-trap) < ev.tol*(hi-lo)/ev.whole {
				return simp
			}
			rtl := e.Runtime()
			j := rtl.NewJoin()
			rtl.Fork(e, j, fnQuad, filaments.Args{
				bits(lo), bits(m), bits(fa), bits(fm), bits(lm), int64(depth - 1),
			})
			rtl.Fork(e, j, fnQuad, filaments.Args{
				bits(m), bits(hi), bits(fm), bits(fb), bits(rm), int64(depth - 1),
			})
			return j.Wait(e)
		}
		rt.RegisterFJ(fnQuad, quad)
		ev := &evaluator{e: e, tol: cfg.Tol, whole: cfg.B - cfg.A}
		var root filaments.Args
		if rt.ID() == 0 {
			fa, fb := ev.f(cfg.A), ev.f(cfg.B)
			fm := ev.f((cfg.A + cfg.B) / 2)
			root = filaments.Args{
				bits(cfg.A), bits(cfg.B), bits(fa), bits(fb), bits(fm), int64(cfg.MaxDepth),
			}
		}
		v := rt.RunForkJoin(e, fnQuad, root)
		if rt.ID() == 0 {
			*out = v
		}
	}, out
}
