package lint

import "go/ast"

// GoHygieneAnalyzer enforces the one goroutine convention of the §IV
// parallel phases that neither the language nor go vet does: wg.Add
// must be called before the goroutine is spawned, never inside it — an
// Add racing Wait can let Wait return early. (Loop-variable capture is
// per-iteration since Go 1.22; by-value sync primitives are vet's
// copylocks.)
func GoHygieneAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "gohygiene",
		Doc:  "wg.Add placement",
	}
	a.Run = func(p *Pass) {
		walkFiles(p, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
						checkAddInside(p, lit)
					}
				}
				return true
			})
		})
	}
	return a
}

// checkAddInside flags wg.Add calls in the spawned body.
func checkAddInside(p *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // a nested spawn site is its own problem
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if isWaitGroup(p, sel.X) {
			p.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races Wait: call Add before the go statement")
		}
		return true
	})
}

// isWaitGroup reports whether e is a sync.WaitGroup or a pointer to one.
func isWaitGroup(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	s := tv.Type.String()
	return s == "sync.WaitGroup" || s == "*sync.WaitGroup"
}
