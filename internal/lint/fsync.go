package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FsyncAnalyzer enforces the repository's durability protocol at the
// syscall boundary (DESIGN.md §12). Two rules:
//
//  1. os.Rename that unsynced data may reach. A rename publishes a
//     name; if the data behind it was never fsync'd, a power cut can
//     commit the name while the blocks are garbage — the exact torn
//     state the durable layer exists to prevent. This rule is
//     path-sensitive (CFG + must-analysis): the rename is clean only
//     if a sync-ish call dominates it on *every* path, so a branch
//     that skips the Sync is flagged even when another branch — or
//     earlier straight-line code, if a Write has since dirtied the
//     file — does sync. "Sync-ish" is any call whose callee name
//     contains "sync" (f.Sync, SyncDir, a helper) or one of the
//     durable commit helpers (WriteFileAtomic, CommitEnvelope,
//     CommitFile); a later (*os.File).Write or os.WriteFile makes the
//     data unsynced again. Renames that are legitimately sync-free
//     (quarantining already-bad bytes, moving staged files whose
//     contents were fsync'd elsewhere) carry a //lint:ignore fsync
//     with the reason.
//
//  2. An unchecked (*os.File).Sync() call. Sync's error is the entire
//     point of calling it — a failed fsync means the data is NOT
//     durable and the commit must not proceed — so dropping it as a
//     bare statement (or a defer) silently downgrades the protocol to
//     hope. An explicit `_ =` discard is left to the errcheck
//     conventions.
//
// Every package is in scope. Test files are exempt: tests rename files
// to simulate corruption and torn state on purpose, and nothing in a
// _test.go file is load-bearing for durability.
func FsyncAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "fsync",
		Doc:  "os.Rename reachable by unsynced data on some path; unchecked (*os.File).Sync errors",
	}
	a.Run = func(p *Pass) {
		// Deferred func(){...}() bodies are analyzed both inlined in the
		// parent's exit preamble and as functions of their own; dedupe.
		seen := map[string]bool{}
		report := func(pos token.Pos, format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			key := fmt.Sprintf("%d:%s", pos, msg)
			if !seen[key] {
				seen[key] = true
				p.Reportf(pos, "%s", msg)
			}
		}
		walkFiles(p, func(f *ast.File) {
			if strings.HasSuffix(p.Position(f.Pos()).Filename, "_test.go") {
				return
			}
			forEachFuncBody(f, func(name string, body *ast.BlockStmt) {
				checkRenameOrdering(p, name, body, report)
			})
			checkUncheckedSync(p, f)
		})
	}
	return a
}

// The fsync fact is one bit: "unsynced data may reach this point".
// Join is OR (a single unsynced path taints the merge), which makes
// the complementary property — synced — a must-analysis: a rename is
// clean only when every incoming path has synced since its last
// write. Entry starts unsynced.
const fsyncUnsynced uint8 = 1

func checkRenameOrdering(p *Pass, name string, body *ast.BlockStmt, report func(pos token.Pos, format string, args ...any)) {
	g := BuildCFG(body)
	reporting := false

	transfer := func(b *Block, in uint8) uint8 {
		out := in
		for _, node := range b.Nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.DeferStmt:
					return false
				case *ast.CallExpr:
					switch {
					case isPkgCall(p, n, "os", "Rename"):
						if reporting && out&fsyncUnsynced != 0 {
							report(n.Pos(), "os.Rename without a preceding sync on every path in %s: a crash can publish the name before the data; fsync the file on each branch or commit via durable.WriteFileAtomic", name)
						}
					case isSyncish(n) || isFileSync(p, n):
						out = 0
					case isFileWrite(p, n):
						out = fsyncUnsynced
					}
				}
				return true
			})
		}
		return out
	}

	in, ok := Forward(g, fsyncUnsynced, func(a, b uint8) uint8 { return a | b },
		func(a, b uint8) bool { return a == b }, transfer)
	if !ok {
		return
	}
	reporting = true
	eachReachable(g, in, transfer)
}

// isSyncish reports whether call plausibly makes data durable before a
// later rename: its bare callee name contains "sync", or it is one of
// the durable commit helpers that sync internally.
func isSyncish(call *ast.CallExpr) bool {
	name := calleeName(call)
	if strings.Contains(strings.ToLower(name), "sync") {
		return true
	}
	switch name {
	case "WriteFileAtomic", "CommitEnvelope", "CommitFile":
		return true
	}
	return false
}

// isFileWrite reports whether call puts new bytes behind a file —
// (*os.File).Write/WriteString/WriteAt or os.WriteFile — which makes
// any earlier sync stale.
func isFileWrite(p *Pass, call *ast.CallExpr) bool {
	if isPkgCall(p, call, "os", "WriteFile") {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteAt":
		return isOSFile(p, sel.X)
	}
	return false
}

// checkUncheckedSync flags (*os.File).Sync() calls whose error result
// is dropped: bare expression statements and defers.
func checkUncheckedSync(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			call, _ = stmt.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = stmt.Call
		}
		if call == nil || !isFileSync(p, call) {
			return true
		}
		p.Reportf(call.Pos(), "Sync error is silently dropped: a failed fsync means the data is not durable, so the commit must stop")
		return true
	})
}

// isFileSync reports whether call is (*os.File).Sync().
func isFileSync(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Sync" && isOSFile(p, sel.X)
}

// isOSFile reports whether e's type is *os.File or os.File.
func isOSFile(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	return isNamed && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// isPkgCall reports whether call is pkgPath.fn(...) via a direct
// package selector.
func isPkgCall(p *Pass, call *ast.CallExpr, pkgPath, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	return ok && obj.Imported().Path() == pkgPath
}
