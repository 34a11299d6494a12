package bench

import (
	"fmt"
	"io"

	"filaments/internal/apps/fft"
	"filaments/internal/apps/mergesort"
)

func init() {
	register("ext-apps", "Extension applications: merge sort and recursive FFT (paper §2.3)", extApps)
}

// extApps runs the two additional balanced fork/join applications the paper
// names in §2.3 alongside expression trees.
func extApps(w io.Writer, o Options) {
	msCfg := mergesort.Config{}
	fftCfg := fft.Config{}
	if o.Quick {
		msCfg.N = 1 << 13
		msCfg.Leaf = 512
		fftCfg.N = 1 << 12
		fftCfg.Leaf = 256
	}
	fmt.Fprintf(w, "merge sort, %d float64 elements (fork/join over migratory DSM)\n", pick(msCfg.N, 1<<15))
	msSeq, _ := mergesort.Sequential(msCfg)
	fmt.Fprintf(w, "  %-6s %12s %12s\n", "Nodes", "Time (s)", "Speedup")
	fmt.Fprintf(w, "  %-6d %12.2f %12.2f\n", 1, msSeq.Seconds(), 1.0)
	for _, p := range []int{2, 4, 8} {
		rep, _, _ := runDF("mergesort", p, nil, mergesort.Setup, msCfg)
		fmt.Fprintf(w, "  %-6d %12.2f %12.2f\n", p, rep.Seconds(), msSeq.Seconds()/rep.Seconds())
	}

	fmt.Fprintf(w, "recursive FFT, %d points (fork/join DIF + RTC bit-reversal)\n", pick(fftCfg.N, 1<<14))
	fftSeq, _, _ := fft.Sequential(fftCfg)
	fmt.Fprintf(w, "  %-6s %12s %12s\n", "Nodes", "Time (s)", "Speedup")
	fmt.Fprintf(w, "  %-6d %12.2f %12.2f\n", 1, fftSeq.Seconds(), 1.0)
	for _, p := range []int{2, 4, 8} {
		rep, _, _ := runDF("fft", p, nil, fft.Setup, fftCfg)
		fmt.Fprintf(w, "  %-6d %12.2f %12.2f\n", p, rep.Seconds(), fftSeq.Seconds()/rep.Seconds())
	}
	fmt.Fprintf(w, "(balanced trees: per the paper, run without dynamic load balancing)\n")
}

func pick(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}
