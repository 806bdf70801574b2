package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// dist2Funcs are the squared-distance producers. Their results live in
// r²-space; comparing them against a plain radius silently admits
// every pair within √r instead of r.
var dist2Funcs = map[string]bool{
	"Dist2":        true,
	"NearestDist2": true,
	"Dist2To":      true,
}

// radiusRe matches identifiers that denote an *unsquared* radius.
var radiusRe = regexp.MustCompile(`^(r|R|radius|Radius)$`)

// squaredNameRe matches identifiers conventionally holding squared
// radii (r2, rr, radius2, rSq, rSquared, ...).
var squaredNameRe = regexp.MustCompile(`(2|[sS]q|[sS]quared|RR)$|^rr$`)

// hotPathRe marks the packages whose inner loops must stay
// square-root free (§III: all interaction tests compare squared
// distances).
var hotPathRe = regexp.MustCompile(`internal/(core|grid|bitmap)(/|$)`)

// postingLoopRe marks the packages whose posting loops must use the
// geom batch kernels: the core pipeline probes each posting's flat
// coordinate arrays with FirstWithin2/AnyWithin2, so a scalar Dist2
// inside a range over []Point there is either a loop the kernels cannot
// express (suppress it with a reason) or a performance bug.
var postingLoopRe = regexp.MustCompile(`internal/core(/|$)`)

// Dist2Analyzer enforces the squared-distance convention:
//
//  1. a comparison of a Dist2/NearestDist2/Dist2To result against a
//     bare radius identifier (r, radius) is flagged — the right-hand
//     side must be r*r or a *2-suffixed squared value;
//  2. math.Sqrt may not appear in hot-path packages (internal/core,
//     internal/grid, internal/bitmap);
//  3. in internal/core (non-test files), a Dist2-family call inside a
//     loop ranging over a []Point is flagged: posting loops belong on
//     the batch kernels over flat coordinate arrays.
func Dist2Analyzer() *Analyzer {
	a := &Analyzer{
		Name: "dist2",
		Doc:  "enforce squared-distance comparisons (Dist2 vs r*r), a Sqrt-free hot path, and kernel-based posting loops",
	}
	a.Run = func(p *Pass) {
		hot := hotPathRe.MatchString(p.Pkg.Path)
		postingScope := postingLoopRe.MatchString(p.Pkg.Path)
		reported := map[token.Pos]bool{}
		walkFiles(p, func(f *ast.File) {
			testFile := strings.HasSuffix(p.Pkg.Fset.Position(f.Pos()).Filename, "_test.go")
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					checkDist2Cmp(p, n)
				case *ast.RangeStmt:
					if postingScope && !testFile && rangesOverPoints(p, n) {
						checkPostingLoop(p, n, reported)
					}
				case *ast.CallExpr:
					if hot && isMathSqrt(p, n) {
						p.Reportf(n.Pos(), "math.Sqrt in hot-path package %s: compare squared distances against r*r instead", p.Pkg.Path)
					}
				}
				return true
			})
		})
	}
	return a
}

// rangesOverPoints reports whether r iterates a slice of a named type
// called Point (geom.Point in the real module, a local stand-in in
// fixtures).
func rangesOverPoints(p *Pass, r *ast.RangeStmt) bool {
	tv, ok := p.Pkg.Info.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Point"
}

// checkPostingLoop flags scalar Dist2-family calls in the body of a
// range over []Point. reported dedupes calls seen through nested
// ranges.
func checkPostingLoop(p *Pass, r *ast.RangeStmt, reported map[token.Pos]bool) {
	ast.Inspect(r.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if !dist2Funcs[name] || reported[call.Pos()] {
			return true
		}
		reported[call.Pos()] = true
		p.Reportf(call.Pos(), "scalar %s in a posting loop over []Point: probe the posting's flat coordinate arrays with the geom batch kernels (FirstWithin2/AnyWithin2) instead", name)
		return true
	})
}

func checkDist2Cmp(p *Pass, b *ast.BinaryExpr) {
	switch b.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return
	}
	var radius ast.Expr
	switch {
	case isDist2Call(b.X):
		radius = b.Y
	case isDist2Call(b.Y):
		radius = b.X
	default:
		return
	}
	if name, bad := unsquaredRadius(radius); bad {
		p.Reportf(b.Pos(), "squared distance compared against unsquared radius %q: use %s*%s or a precomputed %s2", name, name, name, name)
	}
}

// isDist2Call reports whether e is a direct call of a squared-distance
// producer.
func isDist2Call(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return dist2Funcs[calleeName(call)]
}

// unsquaredRadius reports whether e is a bare radius-named identifier
// (or field selector) that is not itself squared.
func unsquaredRadius(e ast.Expr) (string, bool) {
	var name string
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		// r*r products, literals and other expressions are fine.
		return "", false
	}
	if !radiusRe.MatchString(name) || squaredNameRe.MatchString(name) {
		return "", false
	}
	return name, true
}

// isMathSqrt reports whether call is math.Sqrt, verified against type
// information when available so a local Sqrt helper is not flagged.
func isMathSqrt(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sqrt" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if obj, ok := p.Pkg.Info.Uses[id]; ok {
		pn, ok := obj.(*types.PkgName)
		return ok && pn.Imported().Path() == "math"
	}
	// No type info (broken package): fall back to the textual form.
	return id.Name == "math" && !strings.Contains(p.Pkg.Path, "geom")
}
