// Command dflint checks the kernel-seam contracts documented in
// internal/kernel and enforced by internal/lint: no wall-clock time, raw
// goroutines, sync primitives, or map-order dependence in kernel-layer
// packages; no blocking calls in node-context handlers; a binary codec
// registration for every concrete wire payload and handler reply; and the
// whole-program rules (codec symmetry, lock ordering, hot-path
// allocation freedom, frame escape), plus the protocol-contract tier
// (handler idempotence, the wire-tag namespace and WIRE.lock manifest,
// state-machine exhaustiveness/transitions, atomic-access discipline).
//
// It runs two ways:
//
//	dflint ./...                      # standalone, like a linter
//	go vet -vettool=$(which dflint) ./...   # as a vet tool
//
// Standalone mode type-checks the whole module from source (one shared
// FileSet, so object identities span packages) and runs both the
// per-package analyzers and the whole-program ones. Vettool mode speaks
// go vet's unitchecker protocol (-flags, -V=full, then one JSON .cfg
// file per package); vet hands dflint one export-data unit at a time,
// which cannot see dependency function bodies, so vettool mode runs the
// per-package analyzers only. Both print diagnostics as
// file:line:col: message and exit non-zero when any are found.
// Violations are suppressed, with a mandatory reason, by
//
//	//dflint:allow <rule> <one-line reason>
//
// on the flagged line or the line above it.
//
// Standalone flags:
//
//	-json          emit diagnostics as a JSON array instead of text
//	-sarif FILE    additionally write a SARIF 2.1.0 log to FILE
//	-allowlist     print the //dflint:allow baseline lines and exit
//	-fix-baseline  rewrite internal/lint/allow-baseline.txt in place
//	-tags          print the wire-tag map (tag, type, enc shape) and exit
//	-fix-wirelock  rewrite WIRE.lock at the module root and exit
//
// When a WIRE.lock manifest exists at the module root, standalone runs
// diff it against the program's registered codecs and report any drift
// as tagspace diagnostics: renumbered tags and reordered fields fail CI
// until the manifest is regenerated deliberately.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"filaments/internal/lint"
)

func main() {
	args := os.Args[1:]
	// go vet's vettool handshake: report our flags, then our identity.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	for _, a := range args {
		if a == "-V=full" || a == "-V" || strings.HasPrefix(a, "-V=") {
			printVersion()
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0]))
	}
	os.Exit(runStandalone(args))
}

// printVersion implements -V=full. go vet fingerprints the tool for its
// cache, so the line must carry a build ID that changes when the binary
// does: the hash of the executable itself.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%s\n", os.Args[0], id)
}

// --- vettool mode: one type-check unit described by a JSON config. ---

// vetConfig is the subset of go vet's unitchecker config that dflint
// needs: the files of the unit, and how to resolve its imports to
// export-data files.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dflint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Dependencies are visited only so vet can chain facts; dflint keeps
	// no cross-package facts, so an empty output satisfies the protocol.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg.GoFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
		return 1
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	pkg, info, err := check(fset, cfg.ImportPath, files, importer.ForCompiler(fset, "gc", lookup))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "dflint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags := lint.Run(lint.Analyzers(), fset, files, pkg, info)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// --- standalone mode: load the whole module from source. ---

// listUnit is the subset of `go list -json` dflint consumes. With -test,
// a package can appear several times: the plain unit, a test variant
// ("pkg [pkg.test]", its GoFiles merged with the in-package _test files),
// an external test package ("pkg_test [pkg.test]"), and the synthesized
// ".test" main, which has no source of its own and is skipped.
type listUnit struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
}

func runStandalone(args []string) int {
	var (
		jsonOut     bool
		sarifPath   string
		allowlist   bool
		fixBaseline bool
		tagsDump    bool
		fixWirelock bool
		patterns    []string
	)
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-json":
			jsonOut = true
		case a == "-allowlist":
			allowlist = true
		case a == "-fix-baseline":
			fixBaseline = true
		case a == "-tags":
			tagsDump = true
		case a == "-fix-wirelock":
			fixWirelock = true
		case a == "-sarif":
			i++
			if i >= len(args) {
				fmt.Fprintln(os.Stderr, "dflint: -sarif needs a file argument")
				return 2
			}
			sarifPath = args[i]
		case strings.HasPrefix(a, "-sarif="):
			sarifPath = strings.TrimPrefix(a, "-sarif=")
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "usage: dflint [-json] [-sarif file] [-allowlist] [-fix-baseline] [-tags] [-fix-wirelock] [packages]\n       go vet -vettool=$(which dflint) [packages]\n")
			return 2
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if allowlist || fixBaseline {
		return runAllowlist(patterns, fixBaseline)
	}

	units, err := goList("", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
		return 1
	}
	loader := newProgLoader(token.NewFileSet(), units)

	// The whole-program analyzers need every module-local package's
	// bodies: plain units give the objects other packages link against,
	// test variants add the _test.go files. Load both; the call graph
	// and the diagnostic dedupe tolerate the shared files appearing in
	// two units.
	prog := &lint.Program{Fset: loader.fset}
	exit := 0
	for _, u := range units {
		if u.Standard || len(u.GoFiles) == 0 || strings.HasSuffix(u.ImportPath, ".test") {
			continue
		}
		unit, err := loader.unit(u.ImportPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dflint: %s: %v\n", u.ImportPath, err)
			exit = 1
			continue
		}
		prog.Units = append(prog.Units, unit)
	}

	if tagsDump || fixWirelock {
		return runWireTags(prog, tagsDump, fixWirelock, exit)
	}

	// Per-package analyzers run over the pattern-matched units,
	// preferring a package's test variant (whose GoFiles are a superset)
	// so _test.go files are covered without analyzing shared files
	// twice. Program analyzers run once over everything.
	hasTestVariant := make(map[string]bool)
	for _, u := range units {
		if u.ForTest != "" && basePath(u.ImportPath) == u.ForTest {
			hasTestVariant[u.ForTest] = true
		}
	}
	var diags []lint.Diagnostic
	for _, u := range units {
		switch {
		case u.Standard || u.DepOnly || len(u.GoFiles) == 0,
			strings.HasSuffix(u.ImportPath, ".test"),
			u.ForTest == "" && hasTestVariant[u.ImportPath]:
			continue
		}
		unit, err := loader.unit(u.ImportPath)
		if err != nil {
			continue // already reported above
		}
		diags = append(diags, lint.Run(lint.Analyzers(), loader.fset, unit.Files, unit.Pkg, unit.Info)...)
	}
	diags = append(diags, lint.RunProgram(lint.ProgramAnalyzers(), prog)...)
	diags = append(diags, lint.RunProgram(lint.ProtocolAnalyzers(), prog)...)
	diags = append(diags, wireLockDrift(prog)...)
	diags = dedupeDiags(diags)

	cwd, _ := os.Getwd()
	for i := range diags {
		diags[i].Pos.Filename = relPath(cwd, diags[i].Pos.Filename)
	}

	if sarifPath != "" {
		if err := writeSARIF(sarifPath, diags); err != nil {
			fmt.Fprintf(os.Stderr, "dflint: writing %s: %v\n", sarifPath, err)
			exit = 1
		}
	}
	switch {
	case jsonOut:
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
			exit = 1
		}
	default:
		for _, d := range diags {
			fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 && exit == 0 {
		exit = 2
	}
	return exit
}

// runWireTags implements -tags (print the wire-tag map) and
// -fix-wirelock (rewrite the module-root manifest).
func runWireTags(prog *lint.Program, dump, fix bool, exit int) int {
	tags := lint.WireTags(prog)
	if dump {
		fmt.Printf("tag\ttype\tenc shape\n")
		for _, t := range tags {
			fmt.Printf("%d\t%s\t%s\n", t.Tag, t.Type, t.Shape)
		}
		return exit
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
		return 1
	}
	target := filepath.Join(root, "WIRE.lock")
	if err := os.WriteFile(target, []byte(lint.FormatWireLock(tags)), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
		return 1
	}
	fmt.Printf("dflint: wrote %d wire tags to %s\n", len(tags), target)
	return exit
}

// wireLockDrift diffs the checked-in WIRE.lock (when one exists at the
// module root) against the program's registered codecs. Drift surfaces
// as tagspace diagnostics so the allow machinery, JSON, and SARIF paths
// all apply.
func wireLockDrift(prog *lint.Program) []lint.Diagnostic {
	root, err := findModuleRoot()
	if err != nil {
		return nil
	}
	lockPath := filepath.Join(root, "WIRE.lock")
	data, err := os.ReadFile(lockPath)
	if err != nil {
		return nil // no manifest checked in: nothing to hold the line against
	}
	var diags []lint.Diagnostic
	for _, why := range lint.DiffWireLock(string(data), lint.WireTags(prog)) {
		diags = append(diags, lint.Diagnostic{
			Analyzer: "tagspace",
			Pos:      token.Position{Filename: lockPath, Line: 1, Column: 1},
			Message:  "WIRE.lock drift: " + why + "; if the protocol change is deliberate and reviewed, regenerate with: dflint -fix-wirelock ./...",
		})
	}
	return diags
}

// dedupeDiags sorts by position and drops diagnostics that repeat at
// the same position with the same message (a file analyzed both in a
// plain unit and its test variant reports twice).
func dedupeDiags(diags []lint.Diagnostic) []lint.Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d.Analyzer == diags[i-1].Analyzer && d.Message == diags[i-1].Message &&
			d.Pos.Filename == diags[i-1].Pos.Filename && d.Pos.Line == diags[i-1].Pos.Line &&
			d.Pos.Column == diags[i-1].Pos.Column {
			continue
		}
		out = append(out, d)
	}
	return out
}

func relPath(base, path string) string {
	if base == "" {
		return path
	}
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return path
}

// --- the source loader ---

// progLoader type-checks module-local packages from source with one
// shared FileSet, falling back to gc export data for the standard
// library (and any other bodiless dependency). Source loading is what
// gives the program analyzers cross-package object identity: a call
// from dsm into rtnode resolves to the same *types.Func the rtnode unit
// declared.
type progLoader struct {
	fset   *token.FileSet
	byPath map[string]*listUnit
	units  map[string]*lint.Unit
	gcPkgs map[string]*types.Package
	gc     types.Importer
}

func newProgLoader(fset *token.FileSet, units []*listUnit) *progLoader {
	byPath := make(map[string]*listUnit, len(units))
	exports := make(map[string]string, len(units))
	for _, u := range units {
		byPath[u.ImportPath] = u
		if u.Export != "" {
			exports[u.ImportPath] = u.Export
		}
	}
	l := &progLoader{
		fset:   fset,
		byPath: byPath,
		units:  make(map[string]*lint.Unit),
		gcPkgs: make(map[string]*types.Package),
	}
	l.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return l
}

// unit loads (or returns the cached) source-checked package for the
// exact go list import path, test-variant suffix included.
func (l *progLoader) unit(path string) (*lint.Unit, error) {
	if u, ok := l.units[path]; ok {
		return u, nil
	}
	lu := l.byPath[path]
	if lu == nil {
		return nil, fmt.Errorf("package %q not in the load set", path)
	}
	paths := make([]string, len(lu.GoFiles))
	for i, f := range lu.GoFiles {
		paths[i] = filepath.Join(lu.Dir, f)
	}
	files, err := parseFiles(l.fset, paths)
	if err != nil {
		return nil, err
	}
	imp := importerFunc(func(ipath string) (*types.Package, error) {
		if mapped, ok := lu.ImportMap[ipath]; ok {
			ipath = mapped
		}
		return l.importPkg(ipath)
	})
	pkg, info, err := check(l.fset, lu.ImportPath, files, imp)
	if err != nil {
		return nil, err
	}
	u := &lint.Unit{Files: files, Pkg: pkg, Info: info}
	l.units[path] = u
	return u, nil
}

// importPkg resolves one import: from source for module-local units,
// from export data otherwise.
func (l *progLoader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if u, ok := l.units[path]; ok {
		return u.Pkg, nil
	}
	if lu := l.byPath[path]; lu != nil && !lu.Standard && len(lu.GoFiles) > 0 {
		u, err := l.unit(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	if p, ok := l.gcPkgs[path]; ok {
		return p, nil
	}
	p, err := l.gc.Import(path)
	if err != nil {
		return nil, err
	}
	l.gcPkgs[path] = p
	return p, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func goList(dir string, patterns []string) ([]*listUnit, error) {
	args := append([]string{
		"list", "-e", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,GoFiles,ImportMap,Export,Standard,DepOnly,ForTest",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var units []*listUnit
	dec := json.NewDecoder(out)
	for {
		u := new(listUnit)
		if err := dec.Decode(u); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		units = append(units, u)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	return units, nil
}

// --- machine-readable output ---

type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Rule:    d.Analyzer,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeSARIF emits a minimal SARIF 2.1.0 log: one run, one rule per
// analyzer (both the per-package and whole-program suites), one result
// per diagnostic. CI uploads it as the code-scanning artifact.
func writeSARIF(path string, diags []lint.Diagnostic) error {
	type sarifRule struct {
		ID               string `json:"id"`
		ShortDescription struct {
			Text string `json:"text"`
		} `json:"shortDescription"`
	}
	type sarifLocation struct {
		PhysicalLocation struct {
			ArtifactLocation struct {
				URI string `json:"uri"`
			} `json:"artifactLocation"`
			Region struct {
				StartLine   int `json:"startLine"`
				StartColumn int `json:"startColumn"`
			} `json:"region"`
		} `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID  string `json:"ruleId"`
		Level   string `json:"level"`
		Message struct {
			Text string `json:"text"`
		} `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}

	var rules []sarifRule
	addRule := func(name, doc string) {
		r := sarifRule{ID: name}
		r.ShortDescription.Text = doc
		rules = append(rules, r)
	}
	for _, a := range lint.Analyzers() {
		addRule(a.Name, a.Doc)
	}
	for _, a := range lint.ProgramAnalyzers() {
		addRule(a.Name, a.Doc)
	}
	for _, a := range lint.ProtocolAnalyzers() {
		addRule(a.Name, a.Doc)
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		var r sarifResult
		r.RuleID = d.Analyzer
		r.Level = "error"
		r.Message.Text = d.Message
		var loc sarifLocation
		loc.PhysicalLocation.ArtifactLocation.URI = filepath.ToSlash(d.Pos.Filename)
		loc.PhysicalLocation.Region.StartLine = d.Pos.Line
		loc.PhysicalLocation.Region.StartColumn = d.Pos.Column
		r.Locations = []sarifLocation{loc}
		results = append(results, r)
	}

	doc := map[string]any{
		"$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		"version": "2.1.0",
		"runs": []map[string]any{{
			"tool": map[string]any{
				"driver": map[string]any{
					"name":           "dflint",
					"informationUri": "https://example.invalid/dflint",
					"rules":          rules,
				},
			},
			"results": results,
		}},
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- allowlist mode: audit the //dflint:allow escape hatches. ---

// runAllowlist prints (or, with fix set, rewrites the checked-in
// baseline with) the current //dflint:allow inventory. Entries are
// keyed by package, rule, and reason — not file:line — so reformatting
// or moving code does not churn the baseline; only adding, removing, or
// rewording a hatch does.
func runAllowlist(patterns []string, fix bool) int {
	lines, err := allowlistLines("", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
		return 1
	}
	if !fix {
		for _, l := range lines {
			fmt.Println(l)
		}
		return 0
	}
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
		return 1
	}
	out := strings.Join(lines, "\n")
	if out != "" {
		out += "\n"
	}
	target := filepath.Join(root, "internal", "lint", "allow-baseline.txt")
	if err := os.WriteFile(target, []byte(out), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dflint: %v\n", err)
		return 1
	}
	fmt.Printf("dflint: wrote %d baseline entries to %s\n", len(lines), target)
	return 0
}

// allowlistLines collects the allow hatches of the matched packages as
// "pkg: rule: reason" lines, sorted, with an (xN) suffix when the same
// hatch appears N>1 times in the package.
func allowlistLines(dir string, patterns []string) ([]string, error) {
	units, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	count := make(map[string]int)
	for _, u := range units {
		if u.Standard || u.DepOnly || strings.HasSuffix(u.ImportPath, ".test") {
			continue
		}
		pkg := basePath(u.ImportPath)
		for _, f := range u.GoFiles {
			p := filepath.Join(u.Dir, f)
			if seen[p] {
				continue
			}
			seen[p] = true
			parsed, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			for _, a := range lint.CollectAllows(fset, []*ast.File{parsed}) {
				count[fmt.Sprintf("%s: %s: %s", pkg, a.Rule, a.Reason)]++
			}
		}
	}
	lines := make([]string, 0, len(count))
	for key, n := range count {
		if n > 1 {
			key = fmt.Sprintf("%s (x%d)", key, n)
		}
		lines = append(lines, key)
	}
	sort.Strings(lines)
	return lines, nil
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// --- shared ---

func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := lint.NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// basePath strips go list's test-variant suffix: "pkg [pkg.test]" → "pkg".
func basePath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}
