// Command lpmemlint runs the project-specific static analyzer suite
// (internal/lint) over the module. It is the CI gate for the invariants
// the compiler cannot check: determinism of model code, completeness of
// the experiment registry, float-comparison hygiene, panic-free library
// code, error wrapping, allocation discipline in hot loops, lock and
// goroutine hygiene, request-bounded buffer sizing, and no exported
// internal/ API that only tests use (testonly, which needs ./... from
// the module root).
//
// Usage:
//
//	go run ./cmd/lpmemlint ./...
//	go run ./cmd/lpmemlint -list
//	go run ./cmd/lpmemlint -json -enable determinism,registry ./internal/... .
//	go run ./cmd/lpmemlint -escape-evidence -enable hotalloc ./internal/cache
//
// -escape-evidence additionally runs `go build -gcflags=-m` over the
// named packages and attaches the compiler's heap messages to hotalloc
// findings on the same lines, so each report carries proof rather than
// heuristic suspicion.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage
// or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lpmem/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpmemlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listFlag    = fs.Bool("list", false, "print available analyzers and exit")
		jsonFlag    = fs.Bool("json", false, "emit the lpmemlint report envelope as JSON")
		enableFlag  = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disableFlag = fs.String("disable", "", "comma-separated analyzers to skip")
		escapeFlag  = fs.Bool("escape-evidence", false, "corroborate hotalloc findings with go build -gcflags=-m output")
		verboseFlag = fs.Bool("v", false, "also report suppression counts and type-check noise")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: lpmemlint [flags] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Packages default to ./... relative to the module root.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *enableFlag != "" {
		var err error
		analyzers, err = lint.ByName(*enableFlag)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *disableFlag != "" {
		skip, err := lint.ByName(*disableFlag)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		skipped := make(map[string]bool)
		for _, a := range skip {
			skipped[a.Name] = true
		}
		var kept []*lint.Analyzer
		for _, a := range analyzers {
			if !skipped[a.Name] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(stderr, "lpmemlint: no analyzers selected")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "lpmemlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "lpmemlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "lpmemlint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(stderr, "lpmemlint: no packages matched", patterns)
		return 2
	}

	if *escapeFlag {
		idx, err := lint.CollectEscape(loader.ModRoot, patterns)
		if err != nil {
			// Evidence is corroboration, not a prerequisite: report the
			// failure and run without it rather than blocking the gate.
			fmt.Fprintln(stderr, "lpmemlint: escape evidence unavailable:", err)
		} else {
			lint.AttachEscape(pkgs, idx)
			if *verboseFlag {
				fmt.Fprintf(stderr, "lpmemlint: escape evidence for %d source line(s)\n", idx.Len())
			}
		}
	}

	res := lint.Run(pkgs, analyzers)

	if *verboseFlag {
		for _, p := range pkgs {
			for _, te := range p.TypeErrors {
				fmt.Fprintf(stderr, "lpmemlint: typecheck %s: %v\n", p.RelPath, te)
			}
		}
		fmt.Fprintf(stderr, "lpmemlint: %d package(s), %d finding(s), %d suppressed by directives\n",
			len(pkgs), len(res.Diagnostics), res.Suppressed)
	}

	if *jsonFlag {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Report(analyzers, len(pkgs))); err != nil {
			fmt.Fprintln(stderr, "lpmemlint:", err)
			return 2
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}
