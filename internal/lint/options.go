package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// requiredFields maps config/options struct type names to the fields
// whose zero value is NOT safe: a UniformConfig with N == 0 generates
// an empty dataset, a zero FieldSize collapses every object onto one
// point, and so on. Literals that rely on those zeros are almost
// always test bugs, not intent.
var requiredFields = map[string][]string{
	"UniformConfig":    {"N", "M", "FieldSize", "Spread"},
	"NeuronConfig":     {"N", "M", "FieldSize"},
	"TrajectoryConfig": {"N", "M", "FieldSize"},
	"PowerLawConfig":   {"N", "M", "FieldSize"},
}

// optScopeRe limits the check to the places where hand-written
// literals appear: tests, examples and the CLIs. Library code builds
// configs through the Default* constructors.
var optScopeRe = regexp.MustCompile(`(^|/)(examples|cmd)(/|$)|_test$`)

// OptionsAnalyzer flags keyed struct literals of the registered
// config types that omit a field lacking a safe zero value. Unkeyed
// (positional) literals necessarily spell out every field and pass.
// Files ending in _test.go are always in scope.
func OptionsAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "options",
		Doc:  "config struct literals in tests/examples must set fields without safe zero values",
	}
	a.Run = func(p *Pass) {
		pkgInScope := optScopeRe.MatchString(p.Pkg.Path)
		walkFiles(p, func(f *ast.File) {
			file := p.Pkg.Fset.Position(f.Pos()).Filename
			if !pkgInScope && !strings.HasSuffix(file, "_test.go") {
				return
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				checkOptLit(p, lit)
				return true
			})
		})
	}
	return a
}

func checkOptLit(p *Pass, lit *ast.CompositeLit) {
	tv, ok := p.Pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return
	}
	required := requiredFields[named.Obj().Name()]
	if required == nil {
		return
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return
	}
	// Positional literals must list every field; nothing to check.
	if len(lit.Elts) > 0 {
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
			return
		}
	}
	present := map[string]bool{}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				present[id.Name] = true
			}
		}
	}
	var missing []string
	for _, f := range required {
		if !present[f] {
			missing = append(missing, f)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	p.Reportf(lit.Pos(), "%s literal omits %s — the zero value is not a safe default; set it explicitly",
		named.Obj().Name(), strings.Join(missing, ", "))
}
