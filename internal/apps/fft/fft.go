// Package fft implements a recursive radix-2 FFT with fork/join filaments
// over the DSM — the third balanced recursive application the paper names
// in §2.3 alongside expression trees and merge sort.
//
// The transform is decimation-in-frequency: each filament performs the
// butterflies over its contiguous range (good page locality), then forks
// the two half-size transforms; a final pool of run-to-completion
// filaments applies the bit-reversal permutation, showing both filament
// kinds in one program.
package fft

import (
	"math"
	"math/bits"

	"filaments"
	"filaments/internal/dsm"
	"filaments/internal/simnet"
)

// Config is the problem shape. Cluster-level settings — protocol,
// tracing, monitors — belong to the cluster the caller builds.
type Config struct {
	// N is the transform size, a power of two (default 1 << 14).
	N int
	// Leaf is the size below which a filament transforms sequentially
	// (default 1024, or N where N is smaller).
	Leaf int
	// Nodes is the cluster size of the Sequential baseline; Setup takes it
	// from its host.
	Nodes int
	// Seed for the input signal and the baseline's simulation.
	Seed int64
}

func (c *Config) defaults() {
	if c.N == 0 {
		c.N = 1 << 14
	}
	if c.Leaf == 0 {
		c.Leaf = min(1024, c.N)
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.N&(c.N-1) != 0 || c.Leaf&(c.Leaf-1) != 0 || c.Leaf > c.N {
		panic("fft: N and Leaf must be powers of two with Leaf <= N")
	}
}

// butterflyCost is the virtual time of one complex butterfly on the
// paper's hardware. The code computes its twiddle factor on the fly, and
// sin/cos were ~50 µs each on a 25 MHz SPARC, which dominates the
// multiply-adds.
const butterflyCost = 120 * filaments.Microsecond

// input generates the deterministic test signal.
func input(n int, seed int64) (re, im []float64) {
	re = make([]float64, n)
	im = make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i) + float64(seed)
		re[i] = math.Sin(0.03*x) + 0.5*math.Cos(0.11*x)
		im[i] = 0.25 * math.Sin(0.07*x)
	}
	return re, im
}

// difButterflies applies the top-level DIF butterflies over [lo, lo+n).
func difButterflies(re, im []float64, lo, n int) {
	half := n / 2
	for k := 0; k < half; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		wr, wi := math.Cos(ang), math.Sin(ang)
		a, b := lo+k, lo+k+half
		xr, xi := re[a], im[a]
		yr, yi := re[b], im[b]
		re[a], im[a] = xr+yr, xi+yi
		tr, ti := xr-yr, xi-yi
		re[b], im[b] = tr*wr-ti*wi, tr*wi+ti*wr
	}
}

// seqDIF transforms [lo, lo+n) recursively (no reordering).
func seqDIF(re, im []float64, lo, n int) {
	if n == 1 {
		return
	}
	difButterflies(re, im, lo, n)
	seqDIF(re, im, lo, n/2)
	seqDIF(re, im, lo+n/2, n/2)
}

// bitReverse permutes the DIF output into natural order.
func bitReverse(re, im []float64) {
	n := len(re)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
}

// Reference computes the FFT in plain Go.
func Reference(cfg Config) (re, im []float64) {
	cfg.defaults()
	re, im = input(cfg.N, cfg.Seed)
	seqDIF(re, im, 0, cfg.N)
	bitReverse(re, im)
	return re, im
}

// NaiveDFT computes the DFT directly, for cross-validation on small sizes.
func NaiveDFT(re, im []float64) (or, oi []float64) {
	n := len(re)
	or = make([]float64, n)
	oi = make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			or[k] += re[t]*c - im[t]*s
			oi[k] += re[t]*s + im[t]*c
		}
	}
	return or, oi
}

// Sequential runs the distinct single-node program.
func Sequential(cfg Config) (*filaments.Report, []float64, []float64) {
	cfg.defaults()
	var re, im []float64
	c := filaments.New(filaments.Config{Nodes: 1, Seed: cfg.Seed})
	rep, err := c.Run(func(rt *filaments.Runtime, e *filaments.Exec) {
		re, im = input(cfg.N, cfg.Seed)
		var rec func(lo, n int)
		rec = func(lo, n int) {
			if n == 1 {
				return
			}
			difButterflies(re, im, lo, n)
			e.Compute(filaments.Duration(n/2) * butterflyCost)
			rec(lo, n/2)
			rec(lo+n/2, n/2)
		}
		rec(0, cfg.N)
		bitReverse(re, im)
		e.Compute(filaments.Duration(cfg.N) * filaments.Microsecond)
	})
	if err != nil {
		panic(err)
	}
	return rep, re, im
}

const fnFFT = 1

// Setup allocates the transform and scratch arrays on h and returns the
// fork/join + RTC Filaments node program with the two 1×N rows — real
// then imaginary — that hold the spectrum afterwards, bitwise-identical
// to Reference's. The app table's default protocol is write-invalidate:
// the bit-reversal phase reads scattered locations across the whole
// array, and read-only copies must not tear ownership away from the
// transform's writers.
func Setup(h filaments.Host, cfg Config) (filaments.Program, [2]filaments.Matrix) {
	cfg.defaults()
	n := cfg.N
	groupPages := (cfg.Leaf*8 + filaments.PageSize - 1) / filaments.PageSize
	reB := h.AllocWith(int64(n)*8, filaments.AllocOpts{Owner: 0, GroupPages: groupPages})
	imB := h.AllocWith(int64(n)*8, filaments.AllocOpts{Owner: 0, GroupPages: groupPages})
	// Bit-reversal scratch (the permutation is not in-place across
	// nodes), owned in strips by the nodes that will write it.
	stripOwner := func(page int) simnet.NodeID {
		i := page * filaments.PageSize / 8 // first element on the page
		return simnet.NodeID(dsm.StripOf(i, n, h.Nodes()))
	}
	reS := h.AllocWith(int64(n)*8, filaments.AllocOpts{OwnerByPage: stripOwner, GroupPages: groupPages})
	imS := h.AllocWith(int64(n)*8, filaments.AllocOpts{OwnerByPage: stripOwner, GroupPages: groupPages})
	reAt := func(i int) filaments.Addr { return reB + filaments.Addr(i*8) }
	imAt := func(i int) filaments.Addr { return imB + filaments.Addr(i*8) }

	return func(rt *filaments.Runtime, e *filaments.Exec) {
		if rt.ID() == 0 {
			re, im := input(n, cfg.Seed)
			for i := 0; i < n; i++ {
				e.WriteF64(reAt(i), re[i])
				e.WriteF64(imAt(i), im[i])
			}
		}
		var body filaments.FJFunc
		body = func(e *filaments.Exec, a filaments.Args) float64 {
			lo, sz := int(a[0]), int(a[1])
			if sz <= cfg.Leaf {
				// Pull the range and transform locally.
				re := make([]float64, sz)
				im := make([]float64, sz)
				for i := 0; i < sz; i++ {
					re[i] = e.ReadF64(reAt(lo + i))
					im[i] = e.ReadF64(imAt(lo + i))
				}
				seqDIF(re, im, 0, sz)
				for i := 0; i < sz; i++ {
					e.WriteF64(reAt(lo+i), re[i])
					e.WriteF64(imAt(lo+i), im[i])
				}
				e.Compute(filaments.Duration(sz/2*bits.Len(uint(sz-1))) * butterflyCost)
				return 0
			}
			// DIF butterflies over the whole range, then fork the halves.
			half := sz / 2
			for k := 0; k < half; k++ {
				ang := -2 * math.Pi * float64(k) / float64(sz)
				wr, wi := math.Cos(ang), math.Sin(ang)
				ar, ai := e.ReadF64(reAt(lo+k)), e.ReadF64(imAt(lo+k))
				br, bi := e.ReadF64(reAt(lo+k+half)), e.ReadF64(imAt(lo+k+half))
				e.WriteF64(reAt(lo+k), ar+br)
				e.WriteF64(imAt(lo+k), ai+bi)
				tr, ti := ar-br, ai-bi
				e.WriteF64(reAt(lo+k+half), tr*wr-ti*wi)
				e.WriteF64(imAt(lo+k+half), tr*wi+ti*wr)
			}
			e.Compute(filaments.Duration(half) * butterflyCost)
			rtl := e.Runtime()
			j := rtl.NewJoin()
			rtl.Fork(e, j, fnFFT, filaments.Args{int64(lo), int64(half)})
			rtl.Fork(e, j, fnFFT, filaments.Args{int64(lo + half), int64(half)})
			return j.Wait(e)
		}
		rt.RegisterFJ(fnFFT, body)
		e.Barrier()
		rt.RunForkJoin(e, fnFFT, filaments.Args{0, int64(n)})

		// Bit-reversal as a pool of RTC filaments, one per strip of
		// indices, reading from the transform arrays and writing the
		// scratch arrays.
		per := n / rt.Nodes()
		lo := rt.ID() * per
		hi := lo + per
		if rt.ID() == rt.Nodes()-1 {
			hi = n
		}
		shift := 64 - uint(bits.Len(uint(n-1)))
		pool := rt.NewPool("bitrev")
		reorder := func(e *filaments.Exec, a filaments.Args) {
			i := int(a[0])
			j := int(bits.Reverse64(uint64(i)) >> shift)
			e.WriteF64(reS+filaments.Addr(i*8), e.ReadF64(reAt(j)))
			e.WriteF64(imS+filaments.Addr(i*8), e.ReadF64(imAt(j)))
			e.Compute(2 * filaments.Microsecond)
		}
		for i := lo; i < hi; i++ {
			pool.Add(e, reorder, filaments.Args{int64(i)})
		}
		rt.RunPools(e)
		e.Barrier()
	}, [2]filaments.Matrix{{Base: reS, Rows: 1, Cols: n}, {Base: imS, Rows: 1, Cols: n}}
}
