package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// errPathRe scopes the check to the layers where a dropped
// error loses data on disk or hides a bad exit code: the CLIs and the
// dataset I/O package.
var errPathRe = regexp.MustCompile(`(^|/)cmd(/|$)|internal/data(/|$)`)

// errDiscardOK lists call targets whose error is conventionally
// discarded: terminal printing to stdout/stderr cannot be usefully
// handled, and strings.Builder / bytes.Buffer writes never fail.
func errDiscardOK(p *Pass, call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			if obj, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok && obj.Imported().Path() == "fmt" {
				switch fn.Sel.Name {
				case "Print", "Printf", "Println":
					return true
				case "Fprint", "Fprintf", "Fprintln":
					return len(call.Args) > 0 && isStdStream(p, call.Args[0])
				}
			}
		}
		// Methods on never-failing writers.
		if tv, ok := p.Pkg.Info.Types[fn.X]; ok && tv.Type != nil {
			t := tv.Type
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
				if (pkg == "strings" && name == "Builder") || (pkg == "bytes" && name == "Buffer") {
					return true
				}
			}
		}
	}
	return false
}

// ErrCheckAnalyzer flags statements that silently drop an error result
// in the CLI and dataset-I/O packages. An explicit `_ =` assignment is
// treated as a deliberate, visible discard and is not flagged; neither
// are deferred calls, whose Close-on-read idiom is conventional.
func ErrCheckAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "errcheck",
		Doc:  "dropped error returns in cmd/ and internal/data",
	}
	a.Run = func(p *Pass) {
		if !errPathRe.MatchString(p.Pkg.Path) {
			return
		}
		walkFiles(p, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !returnsError(p, call) || errDiscardOK(p, call) {
					return true
				}
				p.Reportf(call.Pos(), "error returned by %s is silently dropped: handle it or discard explicitly with _ =", callLabel(call))
				return true
			})
		})
	}
	return a
}

// isStdStream reports whether e is os.Stdout or os.Stderr.
func isStdStream(p *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	return ok && obj.Imported().Path() == "os"
}

// returnsError reports whether call's result tuple contains an error.
func returnsError(p *Pass, call *ast.CallExpr) bool {
	tv, ok := p.Pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// callLabel renders a short name for the call in diagnostics.
func callLabel(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			return id.Name + "." + fn.Sel.Name
		}
		return fn.Sel.Name
	}
	return "call"
}
