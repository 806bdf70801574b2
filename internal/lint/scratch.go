package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Scratch method classification. The epoch-stamped bitmap.Scratch is
// only correct when every compute-and-read cycle starts from a Reset;
// OrScratch is deliberately excluded from the result reads because the
// destination of a merge is *supposed* to accumulate.
var (
	scratchWrites = map[string]bool{"Set": true, "Clear": true, "OrCompressed": true, "OrIDs": true, "OrScratch": true}
	scratchReads  = map[string]bool{"Cardinality": true, "ToCompressed": true}
	scratchResets = map[string]bool{"Reset": true, "AndNotFromCompressed": true}
)

// ScratchAnalyzer enforces the bitmap.Scratch epoch discipline:
//
//  1. a loop whose every iteration both writes into and reads a result
//     (Cardinality/ToCompressed) from a scratch declared outside
//     the loop must Reset it inside the loop — otherwise iteration k
//     observes the union of iterations 1..k and the τ bounds inflate;
//  2. NewScratch must not be called inside a loop body (that re-buys
//     the O(n/64) zeroing the epoch stamps exist to avoid) — hoist the
//     allocation and Reset per iteration instead.
//
// Loops inside function literals are analyzed in their own right, but
// a function literal appearing inside a loop is treated as part of
// that loop's body, since worker closures run per iteration.
func ScratchAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "scratch",
		Doc:  "enforce Reset between uses of bitmap.Scratch and loop-hoisted allocation",
	}
	a.Run = func(p *Pass) {
		walkFiles(p, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				body := loopBody(n)
				if body == nil {
					return true
				}
				checkLoopReuse(p, n, body)
				checkLoopAlloc(p, body)
				return true
			})
		})
	}
	return a
}

func loopBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return nil
}

// scratchEvents accumulates, per canonical receiver expression, which
// method classes a region performs.
type scratchEvents struct {
	write, read, reset bool
	firstWrite         ast.Node
	base               *ast.Ident
}

// checkLoopReuse implements rule 1. Reads that appear inside an if or
// for *condition* are progress guards on a bitset being consumed
// incrementally (the verification phase's early-exit checks), not
// per-iteration result extraction, so they do not count.
func checkLoopReuse(p *Pass, loop ast.Node, body *ast.BlockStmt) {
	guarded := guardReads(body)
	events := map[string]*scratchEvents{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isScratchExpr(p, sel.X) {
			return true
		}
		key := canonExpr(sel.X)
		ev := events[key]
		if ev == nil {
			ev = &scratchEvents{base: baseIdent(sel.X)}
			events[key] = ev
		}
		m := sel.Sel.Name
		switch {
		case scratchResets[m]:
			ev.reset = true
		case scratchWrites[m]:
			if ev.firstWrite == nil {
				ev.firstWrite = call
			}
			ev.write = true
		case scratchReads[m]:
			if !guarded[call] {
				ev.read = true
			}
		}
		return true
	})
	for key, ev := range events {
		if !ev.write || !ev.read || ev.reset {
			continue
		}
		if ev.base == nil || declaredWithin(p, ev.base, body) {
			continue // fresh per iteration (or unresolvable: stay quiet)
		}
		p.Reportf(ev.firstWrite.Pos(),
			"bitmap.Scratch %s is written and read every iteration without a Reset in the loop: stale bits from earlier iterations leak into the result", key)
	}
}

// guardReads collects calls appearing inside if/for conditions (and
// if-init statements feeding only the condition are NOT included: an
// `if c := s.Cardinality(); c > 0 { tau[i] = c }` extracts a result).
func guardReads(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	mark := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				out[c] = true
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			mark(n.Cond)
		case *ast.ForStmt:
			mark(n.Cond)
		}
		return true
	})
	return out
}

// checkLoopAlloc implements rule 2. Function literals stop the search
// (a worker closure's body runs once per worker, not per iteration),
// and assignments into an index expression are exempt: filling a
// pre-sized pool slice with one scratch per worker is the idiom this
// rule pushes people toward.
func checkLoopAlloc(p *Pass, body *ast.BlockStmt) {
	poolInit := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && calleeName(call) == "NewScratch" {
				if _, idx := asg.Lhs[i].(*ast.IndexExpr); idx {
					poolInit[call] = true
				}
			}
		}
		return true
	})
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if calleeName(n) == "NewScratch" && !poolInit[n] {
				p.Reportf(n.Pos(), "NewScratch inside a loop re-pays the zeroing cost the epoch stamps avoid: hoist the allocation and Reset per iteration")
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// isScratchExpr reports whether e's type is bitmap.Scratch (or a
// pointer to it). Matching is by type name so that self-contained test
// fixtures can declare their own Scratch.
func isScratchExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Scratch"
}

// canonExpr renders e with index expressions collapsed, so that
// locals[0] and locals[w] alias to the same accumulator family.
func canonExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return canonExpr(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return canonExpr(e.X) + "[·]"
	case *ast.CallExpr:
		return canonExpr(e.Fun) + "(…)"
	}
	return fmt.Sprintf("%T", e)
}

// baseIdent returns the leftmost identifier of e.
func baseIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return baseIdent(e.X)
	case *ast.IndexExpr:
		return baseIdent(e.X)
	}
	return nil
}

// declaredWithin reports whether id's declaration lies inside node's
// source range.
func declaredWithin(p *Pass, id *ast.Ident, node ast.Node) bool {
	obj := p.Pkg.Info.Uses[id]
	if obj == nil {
		obj = p.Pkg.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}
