// Command miolint runs the repository's static-analysis suite
// (internal/lint): from-scratch analyzers, built only on the standard
// library's go/parser and go/types, that enforce the conventions the
// MIO pipeline's correctness depends on — squared-distance
// comparisons, bitmap.Scratch epoch discipline, goroutine hygiene in
// the §IV parallel phases, error handling in the I/O layers,
// exhaustive config literals in tests, recover scope, fault-point
// spelling, and (via the CFG + dataflow engine) the durable commit
// protocol's sync-before-rename order.
//
// Usage:
//
//	miolint ./...                  # analyze the whole module
//	miolint -list                  # show the analyzers
//	miolint -format=github ./...   # ::error annotations for CI
//
// Suppress a single finding with a trailing or preceding comment:
//
//	//lint:ignore <analyzer> <reason>
//
// Suppressions that stop matching any diagnostic are reported as
// stale. The analyzers' own golden fixtures run under
// `go test ./internal/lint`.
//
// Exit status: 0 clean, 1 findings reported, 2 load/type errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mio/internal/lint"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list analyzers and exit")
		format = flag.String("format", "text", "diagnostic output: text, or github (::error annotations)")
	)
	flag.Parse()
	if *format != "text" && *format != "github" {
		fatal(fmt.Sprintf("unknown -format %q (want text or github)", *format))
	}

	runner := lint.NewRunner()
	if *list {
		for _, a := range runner.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	// Any package pattern argument ("./...", a directory) anchors the
	// load at that directory's module; the whole module is analyzed.
	dir := "."
	if args := flag.Args(); len(args) > 0 && args[0] != "./..." {
		dir = args[0]
	}

	loader, err := lint.NewLoader(dir)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fatal(err)
	}

	loadErrs := 0
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			fmt.Fprintf(os.Stderr, "miolint: %s: %v\n", pkg.Path, e)
			loadErrs++
		}
	}
	if loadErrs > 0 {
		fatal(fmt.Sprintf("%d type-check error(s); diagnostics would be unreliable", loadErrs))
	}

	diags := runner.Run(pkgs)
	for _, d := range diags {
		if *format == "github" {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=miolint %s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, ghEscape(d.Message))
		} else {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "miolint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// ghEscape encodes the characters GitHub workflow commands treat as
// structure, per the annotations syntax.
func ghEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "miolint:", v)
	os.Exit(2)
}
