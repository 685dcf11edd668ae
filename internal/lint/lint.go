// Package lint is lpmem's project-specific static analyzer suite. The
// experiments in this repository regenerate published DATE'03 numbers, so
// the codebase carries invariants the Go compiler cannot see: model code
// must be deterministic, the experiment registry must stay complete and
// well-formed, energy arithmetic must not compare floats exactly, library
// code must not panic on recoverable conditions, and errors must be
// wrapped rather than flattened. Each invariant is one Analyzer; the
// driver in cmd/lpmemlint runs them over the module and gates CI.
//
// The suite is stdlib-only (go/parser, go/ast, go/types, go/importer):
// no vendored analysis framework, no external dependencies.
//
// A finding can be suppressed at the offending line — or the line above
// it — with a directive comment carrying a mandatory reason:
//
//	//lint:allow <analyzer> <reason>
//
// Directives without a reason are themselves reported, so every
// suppression is a documented decision rather than a silent escape.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a loaded package.
type Analyzer struct {
	// Name is the identifier used in -enable/-disable flags and in
	// //lint:allow directives.
	Name string
	// Doc is a one-line description shown by lpmemlint -list.
	Doc string
	// Run inspects pkg and reports findings through rep.
	Run func(pkg *Package, rep *Reporter)
}

// All returns the full analyzer suite, ten analyzers in stable
// (alphabetical) order. determinism, errwrap, floatcompare, panicfree
// and registry are the API-hygiene wave; boundedbuf, goroutine, hotalloc
// and locks police the performance-and-concurrency invariants the
// dark-memory line of work says dominate at scale (energy goes where the
// memory traffic goes); testonly keeps internal/ free of exported API
// that only tests reach, and needs a ./... load of the whole module.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerBoundedbuf(),
		AnalyzerDeterminism(),
		AnalyzerErrwrap(),
		AnalyzerFloatCompare(),
		AnalyzerGoroutine(),
		AnalyzerHotalloc(),
		AnalyzerLocks(),
		AnalyzerPanicFree(),
		AnalyzerRegistry(),
		AnalyzerTestonly(),
	}
}

// knownAnalyzers indexes every analyzer name a //lint:allow directive
// may legally reference.
func knownAnalyzers() map[string]bool {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// ByName resolves a comma-separated analyzer list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	index := make(map[string]*Analyzer)
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	// Evidence carries compiler corroboration when available — for
	// hotalloc, the `go build -gcflags=-m` message proving the line
	// heap-allocates.
	Evidence string `json:"evidence,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	if d.Evidence != "" {
		s += fmt.Sprintf(" [compiler: %s]", d.Evidence)
	}
	return s
}

// Reporter collects diagnostics for one analyzer over one package,
// honouring //lint:allow suppressions.
type Reporter struct {
	analyzer   string
	pkg        *Package
	diags      []Diagnostic
	suppressed int
}

// Reportf records a finding at pos unless an allow directive covers it.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...interface{}) {
	r.ReportEvidence(pos, "", format, args...)
}

// ReportEvidence records a finding that carries external corroboration
// (e.g. a compiler escape message) unless an allow directive covers it.
func (r *Reporter) ReportEvidence(pos token.Pos, evidence, format string, args ...interface{}) {
	p := r.pkg.Fset.Position(pos)
	if r.pkg.allowed(r.analyzer, p) {
		r.suppressed++
		return
	}
	r.diags = append(r.diags, Diagnostic{
		Analyzer: r.analyzer,
		File:     p.Filename,
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
		Evidence: evidence,
	})
}

// Result is the outcome of running a set of analyzers over packages.
type Result struct {
	// Diagnostics holds every surviving finding, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by //lint:allow directives.
	Suppressed int
}

// ReportSchema versions the lpmemlint -json envelope. Bump it when a
// field changes shape; the schema golden test pins the layout.
const ReportSchema = "lpmemlint/2"

// Report is the machine-readable envelope lpmemlint -json emits (and CI
// uploads as an artifact): which analyzers ran over how many packages,
// every surviving finding, and how many were suppressed by directives.
type Report struct {
	Schema      string       `json:"schema"`
	Analyzers   []string     `json:"analyzers"`
	Packages    int          `json:"packages"`
	Findings    int          `json:"findings"`
	Suppressed  int          `json:"suppressed"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Report assembles the JSON envelope for a finished run.
func (res *Result) Report(analyzers []*Analyzer, packages int) Report {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	diags := res.Diagnostics
	if diags == nil {
		diags = []Diagnostic{}
	}
	return Report{
		Schema:      ReportSchema,
		Analyzers:   names,
		Packages:    packages,
		Findings:    len(diags),
		Suppressed:  res.Suppressed,
		Diagnostics: diags,
	}
}

// Run executes the given analyzers over the given packages.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	res := &Result{}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			rep := &Reporter{analyzer: a.Name, pkg: pkg}
			a.Run(pkg, rep)
			res.Diagnostics = append(res.Diagnostics, rep.diags...)
			res.Suppressed += rep.suppressed
		}
		res.Diagnostics = append(res.Diagnostics, pkg.directiveDiags()...)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

// exprString renders a small expression for diagnostics (best effort).
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.BasicLit:
		return v.Value
	case *ast.BinaryExpr:
		return exprString(v.X) + " " + v.Op.String() + " " + exprString(v.Y)
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	}
	return "expr"
}
