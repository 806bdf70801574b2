// Package lint is a from-scratch static-analysis framework for this
// repository, built only on the standard library's go/parser, go/ast
// and go/types. It exists because the BIGrid pipeline's correctness
// hangs on conventions the type system cannot express: squared
// distances are compared against r², epoch-stamped scratch bitsets
// must be Reset between phases, fault points must be spelled as
// registered, and a rename must not publish unsynced data. Each
// convention is enforced by an Analyzer; cmd/miolint wires them to a
// CLI.
//
// Beyond per-statement syntactic checks, the framework provides an
// intraprocedural CFG constructor (cfg.go) and a generic forward-
// dataflow fixpoint engine (dataflow.go); fsync's rename rule runs on
// them and reasons about every syntactic path, not just source order.
// DESIGN.md §13 documents the architecture and each analyzer's record.
//
// Diagnostics can be suppressed at a specific line with
//
//	//lint:ignore <analyzer> <reason>
//
// placed either on the flagged line or on the line directly above it.
// The analyzer name "all" suppresses every analyzer. A reason is
// mandatory; suppressions without one are reported themselves, and so
// is any suppression that no longer matches a diagnostic, so
// suppressions cannot rot in place.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one repository-specific check. Run is invoked once per
// loaded package and reports findings through the Pass. Finish, when
// set, is invoked once after every package's Run with the whole
// module in view — for cross-package checks like dead fault points.
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(p *Pass)
	Finish func(m *ModulePass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Pkg  *Package
	an   *Analyzer
	sink *[]Diagnostic
	fset *token.FileSet
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      p.fset.Position(pos),
		Analyzer: p.an.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Position resolves pos against the pass's file set, for analyzers
// that embed source locations ("acquired at line N") in messages.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.fset.Position(pos)
}

// ModulePass is the whole-module view handed to Analyzer.Finish after
// every per-package Run. Each Package carries its own Fset, so Finish
// implementations resolve positions through the owning package.
type ModulePass struct {
	Pkgs []*Package
	an   *Analyzer
	sink *[]Diagnostic
}

// Report records a module-level diagnostic at an already-resolved
// position.
func (m *ModulePass) Report(pos token.Position, format string, args ...any) {
	*m.sink = append(*m.sink, Diagnostic{
		Pos:      pos,
		Analyzer: m.an.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Runner owns a set of analyzers and applies them to loaded packages.
type Runner struct {
	Analyzers []*Analyzer
}

// NewRunner returns a Runner with the full default analyzer suite.
func NewRunner() *Runner {
	return &Runner{Analyzers: DefaultAnalyzers()}
}

// DefaultAnalyzers returns the repository's standard suite.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Dist2Analyzer(),
		ScratchAnalyzer(),
		GoHygieneAnalyzer(),
		ErrCheckAnalyzer(),
		OptionsAnalyzer(),
		RecoverAnalyzer(),
		FsyncAnalyzer(),
		FaultPointAnalyzer(),
	}
}

// Run applies every analyzer to every package (then every Finish hook
// to the module) and returns the surviving (non-suppressed)
// diagnostics, plus one for every malformed or stale suppression,
// sorted by position.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	sup := collectSuppressions(pkgs)
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range r.Analyzers {
			p := &Pass{Pkg: pkg, an: a, sink: &raw, fset: pkg.Fset}
			a.Run(p)
		}
	}
	for _, a := range r.Analyzers {
		if a.Finish != nil {
			a.Finish(&ModulePass{Pkgs: pkgs, an: a, sink: &raw})
		}
	}
	var diags []Diagnostic
	for _, d := range raw {
		if sup.suppressed(d) {
			continue
		}
		diags = append(diags, d)
	}
	diags = append(diags, sup.malformed...)
	diags = append(diags, sup.stale()...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// suppression is one //lint:ignore comment, with whether any
// diagnostic actually used it.
type suppression struct {
	pos  token.Position
	name string
	used bool
}

// suppressions indexes every comment by the file:line pairs it covers
// and keeps the full list for the stale audit.
type suppressions struct {
	byLine    map[string][]*suppression // "file:line" -> comments covering that line
	all       []*suppression
	malformed []Diagnostic
}

var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore(\s+(\S+))?(\s+(.*))?$`)

// collectSuppressions scans //lint:ignore comments across all
// packages. A comment at line L suppresses diagnostics on L and L+1,
// so both trailing and preceding placement work.
func collectSuppressions(pkgs []*Package) *suppressions {
	s := &suppressions{byLine: map[string][]*suppression{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					name, reason := m[2], strings.TrimSpace(m[4])
					if name == "" || reason == "" {
						s.malformed = append(s.malformed, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
						})
						continue
					}
					e := &suppression{pos: pos, name: name}
					s.all = append(s.all, e)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						key := fmt.Sprintf("%s:%d", pos.Filename, line)
						s.byLine[key] = append(s.byLine[key], e)
					}
				}
			}
		}
	}
	return s
}

// suppressed reports whether d is covered, marking every covering
// comment as used.
func (s *suppressions) suppressed(d Diagnostic) bool {
	hit := false
	for _, e := range s.byLine[fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)] {
		if e.name == d.Analyzer || e.name == "all" {
			e.used = true
			hit = true
		}
	}
	return hit
}

// stale returns a diagnostic for every well-formed suppression that
// matched nothing.
func (s *suppressions) stale() []Diagnostic {
	var out []Diagnostic
	for _, e := range s.all {
		if e.used {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      e.pos,
			Analyzer: "lint",
			Message: fmt.Sprintf("stale //lint:ignore %s: no %s diagnostic on this or the next line; suppressions that outlive their finding hide future regressions, remove it",
				e.name, e.name),
		})
	}
	return out
}

// walkFiles applies fn to every file of the package.
func walkFiles(p *Pass, fn func(f *ast.File)) {
	for _, f := range p.Pkg.Files {
		fn(f)
	}
}

// calleeName returns the bare name of a call's callee: "F" for F(...)
// and pkg.F(...), "M" for x.M(...).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}
