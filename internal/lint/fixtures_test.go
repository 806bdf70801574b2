package lint

// The analyzer self-test: each analyzer ships a golden fixture under
// testdata/ annotated with
//
//	// want "substring" "another substring"
//
// comments. runFixture loads the fixture as an in-memory package
// (stdlib imports only, via CheckSource), runs the analyzer, and
// cross-checks both directions: every want must be matched by a
// diagnostic on that line, and every diagnostic must be wanted.
// TestAnalyzersGolden runs the suite, so CI proves the analyzers
// themselves work before trusting a clean run over the module.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// fixture pairs one golden file with the analyzers that must produce
// exactly its // want set.
type fixture struct {
	Name       string
	File       string // under the testdata directory
	ImportPath string // crafted so the analyzer's default scope applies
	Analyzers  []*Analyzer
}

// fixtureSuite returns every analyzer golden fixture.
func fixtureSuite() []fixture {
	return []fixture{
		{"dist2", "dist2.go", "fix/internal/core/d2", []*Analyzer{Dist2Analyzer()}},
		{"scratch", "scratch.go", "fix/scratch", []*Analyzer{ScratchAnalyzer()}},
		{"gohygiene", "gohygiene.go", "fix/gohygiene", []*Analyzer{GoHygieneAnalyzer()}},
		{"errcheck", "errcheck.go", "fix/cmd/app", []*Analyzer{ErrCheckAnalyzer()}},
		{"options", "options.go", "fix/examples/app", []*Analyzer{OptionsAnalyzer()}},
		{"recover", "recover.go", "fix/recover", []*Analyzer{RecoverAnalyzer()}},
		{"fsync", "fsync.go", "fix/fsync", []*Analyzer{FsyncAnalyzer()}},
		{"faultpoint", "faultpoint.go", "fix/internal/fault", []*Analyzer{FaultPointAnalyzer()}},
	}
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.+)$`)
var wantStrRe = regexp.MustCompile(`"([^"]*)"`)

// runFixture runs one fixture from dir and returns the mismatches
// (empty means the fixture is green). The error covers I/O and
// type-check problems — a fixture that does not compile proves
// nothing.
func runFixture(dir string, fx fixture) ([]string, error) {
	src, err := os.ReadFile(filepath.Join(dir, fx.File))
	if err != nil {
		return nil, err
	}
	pkg, err := CheckSource(fx.ImportPath, map[string]string{fx.File: string(src)})
	if err != nil {
		return nil, err
	}
	for _, e := range pkg.Errors {
		return nil, fmt.Errorf("fixture must type-check: %v", e)
	}
	runner := &Runner{Analyzers: fx.Analyzers}
	diags := runner.Run([]*Package{pkg})
	if len(diags) == 0 {
		return []string{fmt.Sprintf("%s: fixture produced no diagnostics; miolint would exit 0 on it", fx.File)}, nil
	}
	return diffWants(fx.File, string(src), diags), nil
}

// diffWants cross-checks diagnostics against the fixture's // want
// comments, both directions.
func diffWants(file, src string, diags []Diagnostic) []string {
	var fails []string
	want := map[int][]string{} // line -> expected substrings
	for i, line := range strings.Split(src, "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, sm := range wantStrRe.FindAllStringSubmatch(m[1], -1) {
			want[i+1] = append(want[i+1], sm[1])
		}
	}
	got := map[int][]string{}
	for _, d := range diags {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Message)
	}
	for line, subs := range want {
		for _, sub := range subs {
			found := false
			for _, msg := range got[line] {
				if strings.Contains(msg, sub) {
					found = true
				}
			}
			if !found {
				fails = append(fails, fmt.Sprintf("%s:%d: expected diagnostic containing %q, got %v", file, line, sub, got[line]))
			}
		}
	}
	for line, msgs := range got {
		if len(want[line]) == 0 {
			fails = append(fails, fmt.Sprintf("%s:%d: unexpected diagnostic(s): %v", file, line, msgs))
		}
	}
	sort.Strings(fails) // map iteration above must not leak into output order
	return fails
}
