package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// loadFixture loads one testdata/src package through the real loader.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", name, len(pkgs))
	}
	// The registry fixture deliberately registers an undeclared Run
	// function — a state that cannot compile, which is precisely when the
	// (syntactic) registry analyzer still has to work. Every other
	// fixture must type-check cleanly.
	if name != "registry" && len(pkgs[0].TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, pkgs[0].TypeErrors)
	}
	return pkgs[0]
}

// render formats diagnostics with file paths reduced to base names, the
// stable form stored in the golden files.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.Base(d.File), d.Line, d.Col, d.Analyzer, d.Message)
	}
	return b.String()
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/lint -run %s -update` to create): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// fixtureAnalyzer maps each golden-file test to its analyzer.
var fixtureAnalyzers = map[string]func() *Analyzer{
	"determinism":  AnalyzerDeterminism,
	"registry":     AnalyzerRegistry,
	"floatcompare": AnalyzerFloatCompare,
	"panicfree":    AnalyzerPanicFree,
	"errwrap":      AnalyzerErrwrap,
	"hotalloc":     AnalyzerHotalloc,
	"locks":        AnalyzerLocks,
	"goroutine":    AnalyzerGoroutine,
	"boundedbuf":   AnalyzerBoundedbuf,
}

// TestGolden runs every analyzer over its seeded fixture package and
// compares the findings against the stored golden file. Each fixture
// contains deliberate violations, so an analyzer that reports nothing is
// itself a failure: the suite must fail on seeded bugs.
func TestGolden(t *testing.T) {
	for name, mk := range fixtureAnalyzers {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, name)
			res := Run([]*Package{pkg}, []*Analyzer{mk()})
			if len(res.Diagnostics) == 0 {
				t.Fatalf("analyzer %s found nothing in its seeded fixture", name)
			}
			if res.Suppressed == 0 {
				t.Errorf("fixture %s should exercise at least one //lint:allow suppression", name)
			}
			checkGolden(t, name, render(res.Diagnostics))
		})
	}
}

// loadTestonlyFixture loads the testonly fixture, a mini-module with its
// own go.mod, through the real loader with the given patterns.
func loadTestonlyFixture(t *testing.T, patterns ...string) []*Package {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "src", "testonly"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("fixture package %s has type errors: %v", p.RelPath, p.TypeErrors)
		}
	}
	return pkgs
}

// TestTestonlyGolden runs testonly over the whole fixture module: exports
// reached only from lib_test.go or from nothing (a func, a method, a
// self-recursive func, a var and a type) are findings; exports cmd/tool
// uses, methods an interface declares, constants, fields, unexported
// names and exports outside internal/ are not; one directive suppresses.
func TestTestonlyGolden(t *testing.T) {
	pkgs := loadTestonlyFixture(t, "./...")
	if len(pkgs) != 3 {
		t.Fatalf("fixture loaded %d packages, want 3", len(pkgs))
	}
	res := Run(pkgs, []*Analyzer{AnalyzerTestonly()})
	if res.Suppressed != 1 {
		t.Errorf("want 1 suppression from the fixture's directive, got %d", res.Suppressed)
	}
	checkGolden(t, "testonly", render(res.Diagnostics))
}

// TestTestonlyPartialLoad: references are complete only over the whole
// module, so loading one package reports nothing rather than flagging
// everything its importers use.
func TestTestonlyPartialLoad(t *testing.T) {
	for _, pattern := range []string{"./internal/lib", "./internal/..."} {
		pkgs := loadTestonlyFixture(t, pattern)
		if len(pkgs) != 1 {
			t.Fatalf("%s loaded %d packages, want 1", pattern, len(pkgs))
		}
		if res := Run(pkgs, []*Analyzer{AnalyzerTestonly()}); len(res.Diagnostics) != 0 || res.Suppressed != 0 {
			t.Fatalf("%s: partial load reported %d finding(s), %d suppressed:\n%s",
				pattern, len(res.Diagnostics), res.Suppressed, render(res.Diagnostics))
		}
	}
}

// TestLoaderChecksEachPackageOnce: a package loaded for analysis and the
// same package imported by another are one type-checked object, so a
// use in the importer resolves to the declaring package's object.
func TestLoaderChecksEachPackageOnce(t *testing.T) {
	pkgs := loadTestonlyFixture(t, "./...")
	byPath := make(map[string]*Package)
	for _, p := range pkgs {
		byPath[p.RelPath] = p
	}
	lib, tool := byPath["internal/lib"], byPath["cmd/tool"]
	if lib == nil || tool == nil {
		t.Fatalf("fixture packages missing: %v", byPath)
	}
	want := lib.Types.Scope().Lookup("NewCounter")
	for id, obj := range tool.Info.Uses {
		if id.Name == "NewCounter" {
			if obj != want {
				t.Fatalf("cmd/tool's NewCounter is %p, lib declares %p: the package was checked twice", obj, want)
			}
			return
		}
	}
	t.Fatal("cmd/tool does not use NewCounter")
}

// TestMalformedDirectives: directives without an analyzer name or
// reason — or naming an analyzer the suite does not know — are findings
// regardless of which analyzers run.
func TestMalformedDirectives(t *testing.T) {
	pkg := loadFixture(t, "directive")
	res := Run([]*Package{pkg}, []*Analyzer{AnalyzerPanicFree()})
	got := render(res.Diagnostics)
	checkGolden(t, "directive", got)
	if n := len(res.Diagnostics); n != 3 {
		t.Fatalf("want 3 bad-directive findings (2 malformed + 1 unknown analyzer), got %d:\n%s", n, got)
	}
}

// TestPackageScopeDirective: a directive above the package clause
// suppresses the named analyzer for the whole package. The pkgscope
// fixture panics twice under one directive.
func TestPackageScopeDirective(t *testing.T) {
	pkg := loadFixture(t, "pkgscope")
	res := Run([]*Package{pkg}, []*Analyzer{AnalyzerPanicFree()})
	if len(res.Diagnostics) != 0 {
		t.Fatalf("package-scope directive failed to suppress:\n%s", render(res.Diagnostics))
	}
	if res.Suppressed != 2 {
		t.Fatalf("want 2 suppressions from the package-level directive, got %d", res.Suppressed)
	}
	// The same directive does not leak to other analyzers.
	if got := Run([]*Package{pkg}, []*Analyzer{AnalyzerDeterminism()}); got.Suppressed != 0 {
		t.Fatalf("package-scope panicfree directive suppressed determinism findings: %d", got.Suppressed)
	}
}

// TestAnalyzerSelection covers the -enable/-disable name resolution.
func TestAnalyzerSelection(t *testing.T) {
	all := All()
	if len(all) < 5 {
		t.Fatalf("suite has %d analyzers, want >= 5", len(all))
	}
	got, err := ByName("determinism, registry")
	if err != nil || len(got) != 2 {
		t.Fatalf("ByName: %v %v", got, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown analyzer must error")
	}
}

// TestCleanPackageIsClean: the panicfree fixture run under an analyzer
// with nothing to say must yield zero findings, so exit-zero runs of the
// driver are meaningful.
func TestCleanPackageIsClean(t *testing.T) {
	pkg := loadFixture(t, "panicfree")
	res := Run([]*Package{pkg}, []*Analyzer{AnalyzerRegistry(), AnalyzerDeterminism()})
	if len(res.Diagnostics) != 0 {
		t.Fatalf("unexpected findings: %s", render(res.Diagnostics))
	}
}

// TestLoaderPatterns: ./... expansion skips testdata and finds the real
// packages of this module.
func TestLoaderPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("walks and parses the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].RelPath != "internal/lint" {
		t.Fatalf("pkgs = %+v", pkgs)
	}
	for _, p := range pkgs {
		if strings.Contains(p.RelPath, "testdata") {
			t.Fatalf("testdata package leaked into load: %s", p.RelPath)
		}
	}
}

// TestLoaderSkipsNestedModules: ./... stops at a subdirectory holding its
// own go.mod, as the go command does, so a nested module's packages are
// neither loaded nor linted as part of the outer module.
func TestLoaderSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":              "module example.com/outer\n",
		"a/a.go":              "package a\n",
		"nested/go.mod":       "module example.com/nested\n",
		"nested/n.go":         "package nested\n",
		"nested/deep/deep.go": "package deep\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.RelPath)
	}
	if want := []string{"a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("./... loaded %v, want %v (nested module must be skipped)", got, want)
	}
}

// TestEscapeEvidence runs the real compiler's escape analysis over the
// hotalloc fixture and checks that the analyzer corroborates at least
// three of its findings with the compiler's own heap messages. This is
// the acceptance gate for -escape-evidence: the heuristics and the
// compiler must agree on concrete lines, not just in spirit.
func TestEscapeEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build -gcflags=-m")
	}
	pkg := loadFixture(t, "hotalloc")
	idx, err := CollectEscape(pkg.ModRoot, []string{"./internal/lint/testdata/src/hotalloc"})
	if err != nil {
		t.Fatalf("CollectEscape: %v", err)
	}
	if idx.Len() == 0 {
		t.Fatal("compiler produced no heap messages for the hotalloc fixture")
	}
	AttachEscape([]*Package{pkg}, idx)
	res := Run([]*Package{pkg}, []*Analyzer{AnalyzerHotalloc()})
	corroborated := 0
	for _, d := range res.Diagnostics {
		if d.Evidence != "" {
			corroborated++
		}
	}
	if corroborated < 3 {
		t.Fatalf("want >= 3 findings corroborated by compiler escape evidence, got %d of %d:\n%s",
			corroborated, len(res.Diagnostics), render(res.Diagnostics))
	}
}

// TestReportJSON pins the lpmemlint -json envelope: schema tag, field
// order, and diagnostic layout. CI uploads this document as an
// artifact, so its shape is API.
func TestReportJSON(t *testing.T) {
	pkg := loadFixture(t, "directive")
	res := Run([]*Package{pkg}, []*Analyzer{AnalyzerPanicFree()})
	report := res.Report([]*Analyzer{AnalyzerPanicFree()}, 1)
	if report.Schema != ReportSchema {
		t.Fatalf("schema = %q, want %q", report.Schema, ReportSchema)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// File paths are absolute; anchor them to $MOD for a stable golden.
	got := strings.ReplaceAll(string(raw), pkg.ModRoot, "$MOD") + "\n"
	checkGolden(t, "report_json", got)
}
