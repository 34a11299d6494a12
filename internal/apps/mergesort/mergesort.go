// Package mergesort implements parallel merge sort with fork/join
// filaments over the DSM — one of the balanced recursive applications the
// paper names in §2.3 ("evaluating balanced binary expression trees, merge
// sort, or recursive FFT") when arguing that dynamic load balancing does
// not pay for well-balanced trees.
//
// The array lives in shared memory under the migratory protocol; each
// filament sorts a contiguous range, so page groups of the range migrate
// to the executing node once and stay for the whole leaf sort.
package mergesort

import (
	"sort"

	"filaments"
)

// Config is the problem shape. Cluster-level settings — protocol,
// stealing, tracing, monitors — belong to the cluster the caller builds.
type Config struct {
	// N is the element count (default 1 << 15).
	N int
	// Leaf is the sequential-sort threshold (default 2048 elements).
	Leaf int
	// Nodes is the cluster size of the Sequential baseline; Setup takes it
	// from its host.
	Nodes int
	// Seed for the input permutation and the baseline's simulation.
	Seed int64
}

func (c *Config) defaults() {
	if c.N == 0 {
		c.N = 1 << 15
	}
	if c.Leaf == 0 {
		c.Leaf = 2048
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Virtual costs per element on the paper's hardware, modelling records
// with a nontrivial comparison (sorting is famously merge-bound: the top
// merges are serial, so cheap comparisons would leave the program
// network-dominated on a 10 Mbps cluster).
const (
	leafCostPerElem  = 45 * filaments.Microsecond // ~log(leaf) compares
	mergeCostPerElem = 6 * filaments.Microsecond
)

// input produces the deterministic unsorted input.
func input(n int, seed int64) []float64 {
	// xorshift-style generator, self-contained and stable.
	x := uint64(seed)*2685821657736338717 + 1442695040888963407
	out := make([]float64, n)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = float64(x % 1000003)
	}
	return out
}

// Reference sorts in plain Go.
func Reference(cfg Config) []float64 {
	cfg.defaults()
	v := input(cfg.N, cfg.Seed)
	sort.Float64s(v)
	return v
}

// Sequential runs the distinct single-node program: the same recursion,
// locally.
func Sequential(cfg Config) (*filaments.Report, []float64) {
	cfg.defaults()
	var out []float64
	c := filaments.New(filaments.Config{Nodes: 1, Seed: cfg.Seed})
	rep, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		v := input(cfg.N, cfg.Seed)
		scratch := make([]float64, cfg.N)
		var rec func(lo, hi int)
		rec = func(lo, hi int) {
			if hi-lo <= cfg.Leaf {
				sort.Float64s(v[lo:hi])
				e.Compute(filaments.Duration(hi-lo) * leafCostPerElem)
				return
			}
			mid := (lo + hi) / 2
			rec(lo, mid)
			rec(mid, hi)
			mergeLocal(v, scratch, lo, mid, hi)
			e.Compute(filaments.Duration(hi-lo) * mergeCostPerElem)
		}
		rec(0, cfg.N)
		out = v
	})
	if err != nil {
		panic(err)
	}
	return rep, out
}

func mergeLocal(v, scratch []float64, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if v[i] <= v[j] {
			scratch[k] = v[i]
			i++
		} else {
			scratch[k] = v[j]
			j++
		}
		k++
	}
	copy(scratch[k:], v[i:mid])
	copy(scratch[k+mid-i:], v[j:hi])
	copy(v[lo:hi], scratch[lo:hi])
}

const fnSort = 1

// Setup allocates the array on h and returns the fork/join Filaments node
// program with the array as a 1×N row, sorted afterwards. The app table's
// defaults are migratory (each filament sorts a contiguous range, so its
// page groups migrate once and stay for the whole leaf sort) and no
// stealing (the tree is balanced).
func Setup(h filaments.Host, cfg Config) (filaments.Program, filaments.Matrix) {
	cfg.defaults()
	// The array as page groups of one leaf each, so a leaf sort moves its
	// data in one request.
	groupPages := (cfg.Leaf*8 + filaments.PageSize - 1) / filaments.PageSize
	base := h.AllocWith(int64(cfg.N)*8, filaments.AllocOpts{Owner: 0, GroupPages: groupPages})
	at := func(i int) filaments.Addr { return base + filaments.Addr(i*8) }

	return func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 0 {
			for i, x := range input(cfg.N, cfg.Seed) {
				e.WriteF64(at(i), x)
			}
		}
		var body filaments.FJFunc
		body = func(e *filaments.Exec, a filaments.Args) float64 {
			lo, hi := int(a[0]), int(a[1])
			if hi-lo <= cfg.Leaf {
				// Pull the range, sort locally, write back.
				buf := make([]float64, hi-lo)
				for i := range buf {
					buf[i] = e.ReadF64(at(lo + i))
				}
				sort.Float64s(buf)
				for i, x := range buf {
					e.WriteF64(at(lo+i), x)
				}
				e.Compute(filaments.Duration(hi-lo) * leafCostPerElem)
				return 0
			}
			mid := (lo + hi) / 2
			rtl := e.Runtime()
			j := rtl.NewJoin()
			rtl.Fork(e, j, fnSort, filaments.Args{int64(lo), int64(mid)})
			rtl.Fork(e, j, fnSort, filaments.Args{int64(mid), int64(hi)})
			j.Wait(e)
			// Merge the two sorted runs through this node.
			merged := make([]float64, hi-lo)
			i, jj := lo, mid
			for k := range merged {
				switch {
				case i >= mid:
					merged[k] = e.ReadF64(at(jj))
					jj++
				case jj >= hi:
					merged[k] = e.ReadF64(at(i))
					i++
				default:
					l, r := e.ReadF64(at(i)), e.ReadF64(at(jj))
					if l <= r {
						merged[k] = l
						i++
					} else {
						merged[k] = r
						jj++
					}
				}
			}
			for k, x := range merged {
				e.WriteF64(at(lo+k), x)
			}
			e.Compute(filaments.Duration(hi-lo) * mergeCostPerElem)
			return 0
		}
		rt.RegisterFJ(fnSort, body)
		e.Barrier()
		rt.RunForkJoin(e, fnSort, filaments.Args{0, int64(cfg.N)})
	}, filaments.Matrix{Base: base, Rows: 1, Cols: cfg.N}
}
