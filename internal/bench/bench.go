// Package bench regenerates every table and figure of the paper's
// evaluation (§4). Each experiment runs the same programs as the paper —
// sequential, coarse-grain, and Distributed Filaments — on the simulated
// cluster and prints a table in the paper's format next to the paper's
// published numbers, so divergence is visible at a glance.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"filaments"
	"filaments/internal/apps"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks problem sizes for fast smoke runs; tables keep their
	// shape but absolute numbers no longer match the paper.
	Quick bool
	// Nodes overrides the cluster sizes swept (default 1, 2, 4, 8).
	Nodes []int

	// result, when non-nil, collects the machine-readable form of every
	// table the experiment prints (set by RunCaptured).
	result *Result
}

func (o *Options) nodes() []int {
	if len(o.Nodes) > 0 {
		return o.Nodes
	}
	return []int{1, 2, 4, 8}
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options)
}

var registry []Experiment

func register(id, title string, run func(w io.Writer, o Options)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Row is one machine-readable table row. The time and speedup cells are
// the formatted strings that appear in the prose table — formatted once,
// printed and recorded from the same value — so the JSON numbers match
// the human-readable output bit for bit.
type Row struct {
	Nodes     int    `json:"nodes"`
	CGTime    string `json:"cg_time_s"`
	CGSpeedup string `json:"cg_speedup"`
	DFTime    string `json:"df_time_s"`
	DFSpeedup string `json:"df_speedup"`
	PaperCG   string `json:"paper_cg_s"`
	PaperDF   string `json:"paper_df_s"`
}

// UDPRow is one machine-readable row of a wall-clock UDP experiment:
// one configuration's numbers. Cells are formatted strings for the
// same reason Row's are; WireBytes is exact, so it stays numeric.
type UDPRow struct {
	Config      string `json:"config"`
	Nodes       int    `json:"nodes"`
	ElapsedMS   string `json:"elapsed_ms"`
	PagesPerSec string `json:"pages_per_sec,omitempty"`
	BarrierUS   string `json:"barrier_us,omitempty"`
	WireBytes   int64  `json:"wire_bytes"`
}

// Result is one experiment's machine-readable output.
type Result struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Quick bool   `json:"quick"`
	// Sequential is the sequential baseline in seconds, formatted as in
	// the prose output; PaperSequential is the paper's published value.
	Sequential      string `json:"sequential_s"`
	PaperSequential string `json:"paper_sequential_s"`
	// Rows holds every table row the experiment printed, in print order
	// (experiments that print several tables append to the same slice).
	Rows []Row `json:"rows"`
	// UDPRows holds the wall-clock rows of the UDP experiments (which
	// sweep wire configurations, not the CG/DF variant pair).
	UDPRows []UDPRow `json:"udp_rows,omitempty"`
	// Output is the full prose output, verbatim.
	Output string `json:"output"`
}

// RunCaptured runs the experiment, streaming its prose output to w while
// capturing both the machine-readable rows and the verbatim text.
func RunCaptured(e Experiment, o Options, w io.Writer) *Result {
	res := &Result{ID: e.ID, Title: e.Title, Quick: o.Quick}
	o.result = res
	var buf bytes.Buffer
	e.Run(io.MultiWriter(w, &buf), o)
	res.Output = buf.String()
	return res
}

// table prints a Nodes / CG / DF table in the paper's style.
type table struct {
	w   io.Writer
	seq float64
	res *Result
}

func newTable(w io.Writer, o Options, title string, seq float64, paperSeq string) *table {
	seqStr := fmt.Sprintf("%.1f", seq)
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  Sequential program: %s sec (paper: %s)\n", seqStr, paperSeq)
	fmt.Fprintf(w, "  %-6s %12s %12s %12s %12s %18s\n",
		"Nodes", "CG Time(s)", "CG Speedup", "DF Time(s)", "DF Speedup", "paper CG/DF (s)")
	if o.result != nil {
		o.result.Sequential = seqStr
		o.result.PaperSequential = paperSeq
	}
	return &table{w: w, seq: seq, res: o.result}
}

func (t *table) row(nodes int, cg, df float64, paperCG, paperDF string) {
	r := Row{
		Nodes:     nodes,
		CGTime:    fmt.Sprintf("%.1f", cg),
		CGSpeedup: fmt.Sprintf("%.2f", t.seq/cg),
		DFTime:    fmt.Sprintf("%.1f", df),
		DFSpeedup: fmt.Sprintf("%.2f", t.seq/df),
		PaperCG:   paperCG,
		PaperDF:   paperDF,
	}
	fmt.Fprintf(t.w, "  %-6d %12s %12s %12s %12s %11s/%s\n",
		r.Nodes, r.CGTime, r.CGSpeedup, r.DFTime, r.DFSpeedup, r.PaperCG, r.PaperDF)
	if t.res != nil {
		t.res.Rows = append(t.res.Rows, r)
	}
}

// runDF runs a table application's DF program in the simulation: on the
// cluster internal/apps says the application runs on (its protocol,
// stealing and wake-front defaults), after tune, if any, has adjusted it.
// setup and cfg are the application package's own, so an experiment can
// vary shape fields the shared Params do not carry. It returns the
// report, where the result lies, and the cluster for its counters.
func runDF[C, R any](name string, nodes int, tune func(*filaments.Config),
	setup func(filaments.Host, C) (filaments.Program, R), cfg C) (*filaments.Report, R, *filaments.Cluster) {
	app, _ := apps.ByName(name)
	fc := filaments.Config{Nodes: nodes, Protocol: app.Protocol, Stealing: app.Stealing, WakeFront: app.WakeFront}
	if tune != nil {
		tune(&fc)
	}
	cl := filaments.New(fc)
	prog, res := setup(cl, cfg)
	rep, err := cl.Run(prog)
	if err != nil {
		panic(err)
	}
	return rep, res, cl
}

// under is the runDF tune that replaces the application's protocol.
func under(p filaments.Protocol) func(*filaments.Config) {
	return func(fc *filaments.Config) { fc.Protocol = p }
}
