package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"filaments/internal/obs"
)

func TestSummary(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3, 7, 6})
	if s.Median != 4 || s.Q1 != 2 || s.Q3 != 6 || s.N != 7 {
		t.Fatalf("summarize(1..7) = %+v, want median 4, quartiles 2 and 6", s)
	}
	if got := s.spread(); got != 1 {
		t.Fatalf("spread = %v, want (6-2)/4", got)
	}
	// Quartiles interpolate like Python's statistics.quantiles(n=4).
	s = summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 {
		t.Fatalf("summarize(1..10) = %+v, want 5.5, 2.75, 8.25", s)
	}
	if s := summarize(nil); s != (summary{}) || s.spread() != 0 {
		t.Fatalf("summarize(nil) = %+v", s)
	}
	if m := median([]float64{9}); m != 9 {
		t.Fatalf("median of one = %v", m)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true},  // 10 beyond
		{999, 99, 990, false},  // 9 beyond
		{2000, 99, 1980, true}, // the probes' sample count: 20 beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
		{0, 99, 0, false},
	} {
		got, ok := percentile(ramp(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, p%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if v := tail(ramp(999), 99); v != 0 {
		t.Errorf("tail with 9 beyond = %v, want 0", v)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueWithinLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, want at most 16", n)
	}
	if n := len(perLayer) + len(endToEnd); n > 128 {
		t.Errorf("%d per-layer metrics in a single-workload run, want at most 128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", d.name, d.bound)
		}
	}
	for _, name := range ledgerMetric {
		if _, ok := layerDef(name); !ok {
			t.Errorf("ledger metric %q is not in the catalogue", name)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json says what the catalogue says: same workloads, same
// metrics, same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, catalogue has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var wantE2E, wantLayer []metricDef
	for _, d := range endToEnd {
		if everywhere(d.name) {
			wantE2E = append(wantE2E, d)
		}
	}
	wantLayer = append(wantLayer, perLayer...)
	for _, d := range endToEnd {
		if !everywhere(d.name) {
			wantLayer = append(wantLayer, d)
		}
	}
	if len(b.EndToEnd) != len(wantE2E) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, want %d", len(b.EndToEnd), len(wantE2E))
	}
	for i, m := range b.EndToEnd {
		if d := wantE2E[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, catalogue has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(wantLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, want %d", len(b.PerLayer), len(wantLayer))
	}
	for i, m := range b.PerLayer {
		if d := wantLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, catalogue has %+v", i, m, d)
		}
	}
}

func smokeOptions() options {
	return options{seed: 1, sz: smokeSizes, sizeName: "smoke"}
}

// Every name in BENCHMARK.json is emitted by a smoke run of every
// workload, with its unit, and nothing else is.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := smokeOptions()
			o.workload, o.trace = w.name, trace
			var stdout bytes.Buffer
			if err := runOne(o, &stdout, io.Discard); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got oneResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", w.name, trace, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, got.Correct, got.Attempted, got.Failed)
			}
			for name, unit := range declared[trace] {
				if m, ok := got.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s emitted in %q, declared in %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range got.Metrics {
				if _, ok := declared[trace][name]; !ok {
					t.Errorf("%s trace=%v: emitted metric %s is not declared", w.name, trace, name)
				}
			}
			if !trace {
				for name, m := range got.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// The full run at smoke sizes: all five workloads, the probes, the traced
// run, the result file and a loadable Chrome trace per program.
func TestSmokeFullRun(t *testing.T) {
	dir := t.TempDir()
	o := smokeOptions()
	o.trace = true
	o.out = filepath.Join(dir, "result.json")
	o.traceOut = filepath.Join(dir, "trace")
	var stdout bytes.Buffer
	if err := runAll(o, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	var rep report
	data, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(rep.Workloads), len(workloads))
	}
	printed := map[string]bool{}
	for name := range rep.Probes {
		printed[name] = true
	}
	for i, wr := range rep.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed", wr.Name, wr.Attempted, wr.Failed)
		}
		for _, d := range endToEnd {
			if _, ok := wr.EndToEnd[d.name]; ok != definedOn(d.name, workloads[i]) {
				t.Errorf("%s: end-to-end metric %s present=%v", wr.Name, d.name, ok)
			}
		}
		for name := range wr.PerLayer {
			printed[name] = true
		}
	}
	for _, d := range perLayer {
		if !printed[d.name] {
			t.Errorf("per-layer metric %s printed for no workload and by no probe", d.name)
		}
		if !strings.Contains(stdout.String(), d.name) {
			t.Errorf("per-layer metric %s missing from the text output", d.name)
		}
	}
	traces, err := filepath.Glob(o.traceOut + "-*.json")
	if err != nil || len(traces) != 4+len(simLegNames) {
		t.Fatalf("traces written: %v (%v), want one per UDP workload and sim leg", traces, err)
	}
	for _, path := range traces {
		var tr struct {
			TraceEvents []struct{ Name, Cat, Ph string }
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("%s does not load: %v", path, err)
		}
		var app, kernel bool
		for _, ev := range tr.TraceEvents {
			app = app || (ev.Cat == appCat && ev.Name == "run")
			kernel = kernel || ev.Cat == "sync" || ev.Cat == "dsm"
		}
		if !app || !kernel {
			t.Errorf("%s: benchmark spans present=%v, kernel spans present=%v", path, app, kernel)
		}
	}
}

// Virtual time is exact: two runs of the sim legs agree to the bit, per
// leg and in total.
func TestSimVirtualTimeRepeatsExactly(t *testing.T) {
	a, b := simLegs(smokeSizes, 1, false), simLegs(smokeSizes, 1, false)
	if a.failure != "" || b.failure != "" {
		t.Fatalf("sim legs failed: %q %q", a.failure, b.failure)
	}
	if a.vtime != b.vtime || a.vtime == 0 {
		t.Errorf("vtime_s %v then %v", a.vtime, b.vtime)
	}
	if a.wireMB != b.wireMB {
		t.Errorf("wire_mb %v then %v", a.wireMB, b.wireMB)
	}
	if len(a.legs) != len(simLegNames) {
		t.Fatalf("%d legs, want %d", len(a.legs), len(simLegNames))
	}
	for i := range a.legs {
		if a.legs[i].vtime != b.legs[i].vtime || a.legs[i].ledger != b.legs[i].ledger {
			t.Errorf("leg %s: vtime %v then %v", a.legs[i].name, a.legs[i].vtime, b.legs[i].vtime)
		}
	}
}

func TestCrosscheck(t *testing.T) {
	if msg := crosscheck(7); msg != "" {
		t.Fatal(msg)
	}
}

// A wrong result must fail verification, not pass silently.
func TestVerificationCatchesCorruption(t *testing.T) {
	c := quadCfg{tol: 1e-3, maxDepth: 40, seed: 1}
	area, _ := quadReference(c)
	q := &quadRun{cfg: c, area: area * (1 + 1e-8)}
	if q.verify(area) == "" {
		t.Error("quadrature accepted an area off by 1e-8")
	}
	q.area = area * (1 + 1e-12)
	if msg := q.verify(area); msg != "" {
		t.Errorf("quadrature rejected rounding noise: %s", msg)
	}
	want, _ := jacobiReference(jacobiCfg{n: 8, iters: 2, nodes: 1, seed: 1})
	got, _ := jacobiReference(jacobiCfg{n: 8, iters: 2, nodes: 1, seed: 2})
	if gridsEqual(want, got) {
		t.Error("different seeds gave the same Jacobi grid")
	}
}

func span(node int, cat, name string, ts, dur int64) obs.Event {
	return obs.Event{Node: node, TS: ts, Dur: dur, Cat: cat, Name: name}
}

func TestAnalyse(t *testing.T) {
	st := analyse([]obs.Event{
		span(0, appCat, "init", 0, 10),
		span(0, appCat, "runpools", 10, 50),
		span(0, "dsm", "fault", 20, 30), // overlaps runpools; not taken out of it
		span(0, "sync", "barrier", 62, 16),
		span(0, appCat, "reduce", 60, 20),
		span(0, appCat, "runpools", 80, 60),
		span(0, appCat, "reduce", 140, 40),
		span(0, appCat, "run", 0, 200),
		span(1, appCat, "runpools", 0, 999), // another node: shares are node 0's
		span(1, "sync", "barrier", 100, 84),
		span(1, appCat, "run", 0, 200),
		{Node: 0, TS: 5, Dur: -1, Cat: "dsm", Name: "inval"}, // instants are ignored
	})
	if st.run != 200 || st.compute != 110 || st.sync != 60 || st.self != 20 {
		t.Errorf("node 0: run %v compute %v sync %v self %v, want 200 110 60 20", st.run, st.compute, st.sync, st.self)
	}
	if st.runAll != 400 || st.barrierAll != 100 {
		t.Errorf("all nodes: run %v barrier %v, want 400 100", st.runAll, st.barrierAll)
	}
	if len(st.faults) != 1 || len(st.barriers) != 2 {
		t.Errorf("%d fault and %d barrier spans, want 1 and 2", len(st.faults), len(st.barriers))
	}
	if want := []float64{70, 100}; len(st.steps) != 2 || st.steps[0] != want[0] || st.steps[1] != want[1] {
		t.Errorf("steps %v, want %v (init end to reduce end, reduce end to reduce end)", st.steps, want)
	}
}

// README.md documents every workload and every metric by name.
func TestReadmeNamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	var missing []string
	for _, w := range workloads {
		if !strings.Contains(text, "`"+w.name+"`") {
			missing = append(missing, w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(text, "`"+d.name+"`") {
			missing = append(missing, d.name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("README.md does not name: %s", strings.Join(missing, ", "))
	}
}
