package adlint

// Analyzer goroleak enforces goroutine lifecycle discipline in the
// long-lived subsystems — the supervisor's probe/relaunch loops, the
// coordinator's fan-out, and the chaos scheduler. Every `go` statement
// there must have a reachable stop path the spawner can exercise:
//
//   - context cancellation: the goroutine (or an in-package function it
//     calls) checks ctx.Done()/ctx.Err();
//   - a done/stop channel: it receives from, sends on, closes, or ranges
//     over a channel declared outside its own body — the close-to-stop and
//     result-join idioms;
//   - a WaitGroup join: it calls (*sync.WaitGroup).Done, so some Wait()
//     observes its exit.
//
// A goroutine with none of these can outlive its subsystem: a supervisor
// probe loop that survives Stop() keeps hammering restarted shards, and a
// leaked fan-out worker holds its per-shard connection forever. The walk is
// transitive through the functions declared in the package (a goroutine
// whose body is `s.probeLoop(ctx)` is fine if probeLoop selects on
// ctx.Done()), and a `go` whose target cannot be resolved to a body in this
// package is reported — annotate deliberate fire-and-forget sites with a
// reason.
//
// Scope is path-based like detrand's: only the subsystems whose goroutines
// are long-lived by design are checked; ad-hoc parallelism elsewhere (test
// servers, one-shot CLI helpers) is not this analyzer's concern.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroleakPkgSuffixes scopes the check to the long-lived subsystems.
var goroleakPkgSuffixes = []string{
	"internal/supervisor",
	"internal/coordinator",
	"internal/chaos",
}

// Goroleak is the analyzer instance.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc:  "go statements in long-lived subsystems need a stop path: ctx cancellation, a done/stop channel, or a WaitGroup join",
	Run:  runGoroleak,
}

func runGoroleak(pass *Pass) {
	inScope := false
	for _, suffix := range goroleakPkgSuffixes {
		if pathHasSuffix(pass.Pkg.Path(), suffix) {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	decls := funcDecls(pass.Files)
	g := funcBodies{}
	for _, fd := range decls {
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			g[fn] = fd.Body
		}
	}
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(pass, g, gs)
			if body == nil {
				pass.ReportfScoped(gs.Pos(), scopePos(fd),
					"cannot resolve the goroutine's body in this package; if the target manages its own lifetime, annotate why")
				return true
			}
			if !hasStopPath(pass, g, body, map[*ast.BlockStmt]bool{}) {
				pass.ReportfScoped(gs.Pos(), scopePos(fd),
					"goroutine has no reachable stop path (ctx cancellation, done/stop channel, or WaitGroup join)")
			}
			return true
		})
	}
}

// funcBodies maps every function and method the package declares with a body
// to that body: what a call must resolve to for the walk to follow it. Calls
// into other packages are leaves.
type funcBodies map[*types.Func]*ast.BlockStmt

// goBody resolves the body a go statement runs: a literal's own body, or
// the in-package declaration of a named target.
func goBody(pass *Pass, g funcBodies, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	callee := calleeOf(pass.TypesInfo, gs.Call)
	if callee == nil {
		return nil
	}
	return g[callee]
}

// hasStopPath reports whether body contains a stop construct, searching
// transitively through in-package callees.
func hasStopPath(pass *Pass, g funcBodies, body *ast.BlockStmt, visited map[*ast.BlockStmt]bool) bool {
	if visited[body] {
		return false
	}
	visited[body] = true
	info := pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if callee := calleeOf(info, x); callee != nil {
				if isContextCheck(callee) || isWaitGroupDone(callee) {
					found = true
					return false
				}
				if next := g[callee]; next != nil && hasStopPath(pass, g, next, visited) {
					found = true
					return false
				}
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if outerChannel(info, x.Args[0], body) {
					found = true
					return false
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && outerChannel(info, x.X, body) {
				found = true
				return false
			}
		case *ast.SendStmt:
			if outerChannel(info, x.Chan, body) {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && outerChannel(info, x.X, body) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isContextCheck matches ctx.Done() / ctx.Err().
func isContextCheck(f *types.Func) bool {
	return pkgPathOf(f) == "context" && (f.Name() == "Done" || f.Name() == "Err")
}

// isWaitGroupDone matches (*sync.WaitGroup).Done.
func isWaitGroupDone(f *types.Func) bool {
	return pkgPathOf(f) == "sync" && f.Name() == "Done" && recvNamed(f) != nil &&
		recvNamed(f).Obj().Name() == "WaitGroup"
}

// outerChannel reports whether the channel expression roots in a variable
// declared outside body — a stop/done/result channel the spawner shares —
// rather than one the goroutine made for itself.
func outerChannel(info *types.Info, ch ast.Expr, body *ast.BlockStmt) bool {
	id := rootIdent(ch)
	if id == nil {
		return false
	}
	obj := objOf(info, id)
	if obj == nil || !obj.Pos().IsValid() {
		return false
	}
	return obj.Pos() < body.Pos() || obj.Pos() > body.End()
}
