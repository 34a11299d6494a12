// Command benchmark is the repository's one performance instrument: five
// fixed-size workloads on both clocks (wall time over loopback UDP,
// virtual time in the simulation), seven end-to-end metrics, a ladder of
// per-layer probes named after the repo's modules, and a traced run. It
// claims no gain; later changes are measured with it. See README.md.
//
//	go run -C benchmark .                  every workload, the probes, a result file
//	go run -C benchmark . -trace 1         the same plus the traced run and its span metrics
//	go run -C benchmark . -aa              the untraced set twice, compared against the bounds
//	go run -C benchmark . -smoke           everything at tiny sizes, in seconds
//	go run -C benchmark . -workload NAME -seed N -seconds S -trace 0|1
//	                                       one workload; the last line of stdout is one JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	aa       bool
	out      string
	commit   string
	sz       sizes
	sizeName string
}

func realMain() int {
	var o options
	var trace int
	var smoke bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON object as the last line of stdout")
	flag.Int64Var(&o.seed, "seed", 1, "seeds Config.Seed, the Jacobi interior, the writeshare values and the quadrature needle shift; never a size")
	flag.IntVar(&o.seconds, "seconds", 0, "with -workload: keep timing repetitions for this long (0: the fixed counts)")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and the span metrics; with -workload, 1 prints the per-layer metrics and 0 the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write each workload's last traced repetition as Chrome trace JSON to PREFIX-<workload>-<program>.json")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced set twice and compare the two against the bounds")
	flag.BoolVar(&smoke, "smoke", false, "tiny sizes and sample counts: all workloads, probes and the traced run in seconds")
	flag.StringVar(&o.out, "out", "results/latest.json", "where the full run writes its machine-readable result")
	flag.StringVar(&o.commit, "commit", vcsRevision(), "commit to record in the result")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.seconds < 0 {
		flag.Usage()
		return 2
	}
	o.trace = trace == 1
	o.sz, o.sizeName = fullSizes, "full"
	if smoke {
		o.sz, o.sizeName, o.trace = smokeSizes, "smoke", true
	}
	var err error
	switch {
	case o.workload != "":
		err = runOne(o, os.Stdout, os.Stderr)
	case o.aa:
		err = runAA(o, os.Stdout)
	default:
		err = runAll(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// --- One workload, for a driver: JSON on the last line of stdout. ---

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type oneResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne measures a single workload. With trace off it reports the
// end-to-end metrics defined on every workload; with trace on, every
// per-layer metric plus the end-to-end ones that are not defined
// everywhere. A metric of a layer the workload does not exercise is 0.
func runOne(o options, stdout, log io.Writer) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	budget := time.Duration(o.seconds) * time.Second
	timed := atLeast(3, budget)
	if o.trace {
		timed = atLeast(3, budget/2)
	}
	if o.seconds == 0 {
		timed = nil
	}
	out := oneResult{Metrics: map[string]metricValue{}}
	res, err := measureWith(log, w, o, timed)
	if err == nil && o.trace {
		err = traceWith(log, res, o, timed)
	}
	if err != nil {
		return err
	}
	out.Attempted, out.Failed = res.attempted, res.failed
	if !o.trace {
		for _, d := range endToEnd {
			if everywhere(d.name) {
				out.Metrics[d.name] = metricValue{res.endToEnd(d.name).Median, d.unit}
			}
		}
	} else {
		probed, err := runProbes(o.sz.probeScale)
		if err != nil {
			return err
		}
		layers := []map[string]float64{probed, res.counterLayer(), res.spanLayer()}
		if !w.sim {
			// The sim rungs of the ladder do not depend on the workload;
			// one untimed-warm-up repetition of the sim legs fills them.
			simW, _ := findWorkload("sim-8node")
			simRes := &result{w: simW}
			if simRes.reps, err = simRes.repeat(log, o.sz, o.seed, false, "sim ladder", times(1)); err != nil {
				return err
			}
			out.Attempted += simRes.attempted
			out.Failed += simRes.failed
			// Last, so the workload's own dsm, reduce and filament counters
			// win over the sim legs'.
			layers = append(layers, simRes.counterLayer())
		}
		for _, d := range perLayer {
			var v float64
			for _, layer := range layers {
				if x, ok := layer[d.name]; ok {
					v = x
					break
				}
			}
			out.Metrics[d.name] = metricValue{v, d.unit}
		}
		for _, d := range endToEnd {
			if everywhere(d.name) {
				continue
			}
			var v float64
			if definedOn(d.name, w) || d.name == "wire_mb" {
				v = res.endToEnd(d.name).Median
			}
			out.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return fmt.Errorf("%d of %d repetitions failed", out.Failed, out.Attempted)
	}
	return nil
}

func measureWith(log io.Writer, w workload, o options, timed func(int, time.Duration) bool) (*result, error) {
	if timed == nil {
		reps := o.sz.reps
		if w.sim {
			reps = o.sz.simReps
		}
		timed = times(reps)
	}
	return measure(log, w, o.sz, o.seed, timed)
}

func traceWith(log io.Writer, res *result, o options, more func(int, time.Duration) bool) error {
	if more == nil {
		more = times(o.sz.traceReps)
	}
	if err := res.trace(log, o.sz, o.seed, more); err != nil {
		return err
	}
	if o.traceOut == "" || len(res.traced) == 0 {
		return nil
	}
	for _, nt := range res.traced[len(res.traced)-1].traces {
		if err := writeTrace(fmt.Sprintf("%s-%s-%s.json", o.traceOut, res.w.name, nt.name), nt); err != nil {
			return err
		}
	}
	return nil
}

func writeTrace(path string, nt namedTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := nt.tr.WriteJSON(f); err != nil {
		f.Close() //nolint:errcheck // the write error is the one to report
		return err
	}
	return f.Close()
}

// --- The full run. ---

type environment struct {
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Kernel     string  `json:"kernel"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1      float64 `json:"load_avg_1m"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Sizes      string  `json:"sizes"`
	Started    string  `json:"started"`
}

func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func recordEnvironment(o options) environment {
	env := environment{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: o.commit, Seed: o.seed, Sizes: o.sizeName, Started: time.Now().UTC().Format(time.RFC3339)}
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		var b []byte
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		env.Load1 = float64(si.Loads[0]) / 65536
	}
	return env
}

type e2eReport struct {
	summary
	Unit   string  `json:"unit"`
	Bound  float64 `json:"bound"`
	Spread float64 `json:"spread"`
}

type repReport struct {
	Wall, CPU, Setup, AllocMB, WireMB float64
	Retransmits, MirageDrops          int64
	TimerBound                        bool
}

type workloadReport struct {
	Name      string               `json:"name"`
	Why       string               `json:"why"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string]e2eReport `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Reps      []repReport          `json:"repetitions"`
}

type report struct {
	Schema     int                `json:"schema"`
	Env        environment        `json:"environment"`
	Crosscheck string             `json:"crosscheck"`
	Workloads  []workloadReport   `json:"workloads"`
	Probes     map[string]float64 `json:"probes"`
}

func (res *result) report(spans bool) workloadReport {
	wr := workloadReport{Name: res.w.name, Why: res.w.why, Attempted: res.attempted, Failed: res.failed,
		EndToEnd: map[string]e2eReport{}, PerLayer: res.counterLayer()}
	for _, d := range endToEnd {
		if definedOn(d.name, res.w) {
			s := res.endToEnd(d.name)
			wr.EndToEnd[d.name] = e2eReport{s, d.unit, d.bound, s.spread()}
		}
	}
	if spans {
		for name, v := range res.spanLayer() {
			wr.PerLayer[name] = v
		}
	}
	for _, r := range res.reps {
		wr.Reps = append(wr.Reps, repReport{r.wall, r.cpu, r.setup(), r.allocMB, r.wireMB,
			r.counters["net.retransmits"], r.counters["dsm.mirage_drops"], res.timerBound(r)})
	}
	return wr
}

func layerDef(name string) (metricDef, bool) {
	for _, d := range perLayer {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printWorkload(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "\n== %s: %d repetitions attempted, %d failed, %d timed\n   %s\n",
		wr.Name, wr.Attempted, wr.Failed, len(wr.Reps), wr.Why)
	fmt.Fprintf(w, "   %-12s %-6s %12s %12s %12s %3s %8s %7s\n", "end-to-end", "unit", "median", "q1", "q3", "n", "spread", "bound")
	for _, d := range endToEnd {
		if e, ok := wr.EndToEnd[d.name]; ok {
			fmt.Fprintf(w, "   %-12s %-6s %12.6g %12.6g %12.6g %3d %7.2f%% %6.0f%%\n",
				d.name, e.Unit, e.Median, e.Q1, e.Q3, e.N, 100*e.Spread, 100*e.Bound)
		}
	}
	fmt.Fprintf(w, "   %-4s %9s %9s %9s %10s %10s %11s %12s\n", "rep", "wall_s", "cpu_s", "setup_s", "alloc_mb", "wire_mb", "retransmits", "mirage_drops")
	for i, r := range wr.Reps {
		flag := ""
		if r.TimerBound {
			flag = "  timer-bound: unusual retransmit or Mirage-drop count"
		}
		fmt.Fprintf(w, "   %-4d %9.4f %9.4f %9.4f %10.3f %10.4f %11d %12d%s\n",
			i, r.Wall, r.CPU, r.Setup, r.AllocMB, r.WireMB, r.Retransmits, r.MirageDrops, flag)
	}
	fmt.Fprintf(w, "   per-layer (counters: median of the timed repetitions; spans: traced repetitions pooled)\n")
	printLayer(w, wr.PerLayer)
}

func printLayer(w io.Writer, m map[string]float64) {
	for _, name := range sortedKeys(m) {
		d, _ := layerDef(name)
		fmt.Fprintf(w, "   %-32s %16.6g %-6s %s\n", name, m[name], d.unit, d.source)
	}
}

func runAll(o options, w io.Writer) error {
	rep := report{Schema: 1, Env: recordEnvironment(o)}
	fmt.Fprintf(w, "benchmark: %s sizes, seed %d, %s %s/%s, kernel %s, %d CPUs, GOMAXPROCS %d, load %.2f, commit %s\n",
		o.sizeName, o.seed, rep.Env.Go, rep.Env.OS, rep.Env.Arch, rep.Env.Kernel, rep.Env.NumCPU,
		rep.Env.GOMAXPROCS, rep.Env.Load1, rep.Env.Commit)
	if msg := crosscheck(o.seed); msg != "" {
		return fmt.Errorf("crosscheck: %s", msg)
	}
	rep.Crosscheck = "sim and UDP Jacobi and writeshare results are bitwise identical"
	fmt.Fprintf(w, "crosscheck: %s\n", rep.Crosscheck)
	failed := 0
	for _, wl := range workloads {
		res, err := measureWith(w, wl, o, nil)
		if err == nil && o.trace {
			err = traceWith(w, res, o, nil)
		}
		if err != nil {
			return err
		}
		failed += res.failed
		wr := res.report(o.trace)
		printWorkload(w, wr)
		rep.Workloads = append(rep.Workloads, wr)
	}
	probed, err := runProbes(o.sz.probeScale)
	if err != nil {
		return err
	}
	rep.Probes = probed
	fmt.Fprintf(w, "\n== layer probes (p50 unless suffixed)\n")
	printLayer(w, probed)
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nresult written to %s\n", o.out)
	}
	if failed > 0 {
		return fmt.Errorf("%d repetitions failed", failed)
	}
	return nil
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- A/A: the same code measured twice must agree with itself. ---

// runAA runs the untraced set twice back to back. A pair is unresolved
// when either set's own spread is wider than the bound — then the bound
// cannot tell a regression from noise — and out of bound when the second
// median is worse than the first by more than the bound. Either exits
// non-zero. setup_s is held to its bound only: it is a few milliseconds
// of single-threaded work and a collection, its repetitions scatter by
// tens of percent, and its median is what is compared.
func runAA(o options, w io.Writer) error {
	var sets [2][]*result
	for i := range sets {
		for _, wl := range workloads {
			res, err := measureWith(w, wl, o, nil)
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], res)
		}
	}
	bad := 0
	fmt.Fprintf(w, "%-20s %-10s %12s %12s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "first", "second", "diff", "bound", "spread1", "spread2", "verdict")
	for i, wl := range workloads {
		a, b := sets[0][i], sets[1][i]
		for _, d := range endToEnd {
			if !definedOn(d.name, wl) {
				continue
			}
			sa, sb := a.endToEnd(d.name), b.endToEnd(d.name)
			var diff float64
			if sa.Median != 0 {
				diff = (sb.Median - sa.Median) / sa.Median
			} else if sb.Median != 0 {
				diff = 1
			}
			verdict := "ok"
			switch {
			case d.name != "setup_s" && (sa.spread() > d.bound || sb.spread() > d.bound):
				verdict = "unresolved"
				bad++
			case diff > d.bound:
				verdict = "out of bound"
				bad++
			}
			fmt.Fprintf(w, "%-20s %-10s %12.6g %12.6g %+8.2f%% %6.0f%% %8.2f%% %8.2f%%  %s\n",
				wl.name, d.name, sa.Median, sb.Median, 100*diff, 100*d.bound, 100*sa.spread(), 100*sb.spread(), verdict)
		}
		ra, rb := a.usualCount("net.retransmits"), b.usualCount("net.retransmits")
		verdict := "ok"
		if ra != rb {
			verdict = "differs"
			bad++
		}
		fmt.Fprintf(w, "%-20s %-10s %12d %12d %47s %s\n", wl.name, "retransmits", ra, rb, "", verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs unresolved or out of bound", bad)
	}
	return nil
}
