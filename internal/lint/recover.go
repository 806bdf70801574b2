package lint

import (
	"go/ast"
	"go/types"
)

// RecoverAnalyzer flags recover() calls that swallow a panic without a
// trace: the result is discarded (a bare `recover()` statement) or
// assigned to the blank identifier, and the enclosing function never
// panics again. The serving stack's resilience accounting depends on
// every recovery either re-panicking toward the next layer or recording
// what was caught (the middleware ticks panic_total and writes the 500;
// the shard backend returns it as the attempt's error); a silent
// recover would make a crashing engine look healthy.
//
// The check is per function literal: a panic() in an *outer* scope
// does not excuse a swallowed recover inside a deferred closure,
// because that closure is exactly where the panic value dies.
func RecoverAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "recover",
		Doc:  "recover() must re-panic or record the recovered value, never swallow it",
	}
	a.Run = func(p *Pass) {
		walkFiles(p, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						checkRecoverScope(p, n.Body)
					}
				case *ast.FuncLit:
					checkRecoverScope(p, n.Body)
				}
				return true
			})
		})
	}
	return a
}

// checkRecoverScope examines one function body, stopping at nested
// function literals (ast.Inspect visits those as their own scopes).
func checkRecoverScope(p *Pass, body *ast.BlockStmt) {
	var swallowed []ast.Node
	repanics := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isBuiltinCall(p, call, "recover") {
				swallowed = append(swallowed, call)
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinCall(p, call, "recover") || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					swallowed = append(swallowed, call)
				}
			}
		case *ast.CallExpr:
			if isBuiltinCall(p, n, "panic") {
				repanics = true
			}
		}
		return true
	})
	if repanics {
		return
	}
	for _, n := range swallowed {
		p.Reportf(n.Pos(), "recover() swallows the panic: re-panic or record the recovered value (assign it and act on it)")
	}
}

// isBuiltinCall reports whether call invokes the builtin of that name
// (not a shadowing declaration).
func isBuiltinCall(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := p.Pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}
