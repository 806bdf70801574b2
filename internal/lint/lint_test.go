package lint

import (
	"fmt"
	"strings"
	"testing"
)

// TestAnalyzersGolden runs every analyzer against its fixture under
// testdata and cross-checks diagnostics with the // want comments.
func TestAnalyzersGolden(t *testing.T) {
	for _, fx := range fixtureSuite() {
		t.Run(fx.Name, func(t *testing.T) {
			fails, err := runFixture("testdata", fx)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fails {
				t.Error(f)
			}
		})
	}
}

// TestSuppression covers the //lint:ignore mechanics: trailing and
// preceding placement, the "all" wildcard, name mismatch, and the
// malformed-comment diagnostic. A suppression naming the wrong
// analyzer leaves the finding and is itself reported as stale.
func TestSuppression(t *testing.T) {
	const tmpl = `package p

func fails() error { return nil }

func f() {
	%s
}
`
	cases := []struct {
		name    string
		body    string
		wantN   int
		wantSub string
	}{
		{"trailing", `fails() //lint:ignore errcheck reasoned`, 0, ""},
		{"preceding", "//lint:ignore errcheck reasoned\n\tfails()", 0, ""},
		{"wildcard", `fails() //lint:ignore all reasoned`, 0, ""},
		{"wrong-name", `fails() //lint:ignore dist2 reasoned`, 2, "silently dropped"},
		{"missing-reason", `fails() //lint:ignore errcheck`, 2, "malformed"},
		{"no-comment", `fails()`, 1, "silently dropped"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := fmt.Sprintf(tmpl, tc.body)
			pkg, err := CheckSource("fix/cmd/sup", map[string]string{"sup.go": src})
			if err != nil {
				t.Fatal(err)
			}
			runner := &Runner{Analyzers: []*Analyzer{ErrCheckAnalyzer()}}
			diags := runner.Run([]*Package{pkg})
			if len(diags) != tc.wantN {
				t.Fatalf("got %d diagnostics %v, want %d", len(diags), diags, tc.wantN)
			}
			if tc.wantN > 0 {
				found := false
				for _, d := range diags {
					if strings.Contains(d.Message, tc.wantSub) {
						found = true
					}
				}
				if !found {
					t.Fatalf("no diagnostic in %v contains %q", diags, tc.wantSub)
				}
			}
		})
	}
}

// TestStaleSuppressionAudit pins the audit: a suppression that matches
// a diagnostic is silent, and one that matches nothing is itself
// reported.
func TestStaleSuppressionAudit(t *testing.T) {
	const src = `package p

func fails() error { return nil }

func f() {
	fails() //lint:ignore errcheck the result is advisory here
	//lint:ignore errcheck nothing on this line fails
	_ = 1 + 1
}
`
	pkg, err := CheckSource("fix/cmd/stale", map[string]string{"stale.go": src})
	if err != nil {
		t.Fatal(err)
	}
	diags := (&Runner{Analyzers: []*Analyzer{ErrCheckAnalyzer()}}).Run([]*Package{pkg})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "stale //lint:ignore errcheck") {
		t.Fatalf("diags run = %v, want exactly the stale-suppression diagnostic", diags)
	}
	if diags[0].Pos.Line != 7 {
		t.Errorf("stale diagnostic at line %d, want 7 (the dead comment)", diags[0].Pos.Line)
	}
}

// TestRepoIsLintClean loads the real module and asserts the full suite
// — stale-suppression audit included — reports nothing: the
// conventions the analyzers enforce hold everywhere, and stay held.
// This is the same gate CI applies via `go run ./cmd/miolint ./...`.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against GOROOT sources")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; loader lost part of the module", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
	diags := NewRunner().Run(pkgs)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestLoaderFindsTestPackages asserts the loader sees in-package and
// external test files, which several analyzers (options in
// particular) must be able to inspect.
func TestLoaderFindsTestPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	root := byPath[loader.ModulePath()]
	if root == nil {
		t.Fatalf("root package %s not loaded", loader.ModulePath())
	}
	hasTestFile := false
	for _, f := range root.Files {
		if strings.HasSuffix(root.Fset.Position(f.Pos()).Filename, "_test.go") {
			hasTestFile = true
		}
	}
	if !hasTestFile {
		t.Error("root package loaded without its _test.go files")
	}
}
