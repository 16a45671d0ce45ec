package adlint

// Analyzer bodyclose enforces response-body hygiene repo-wide: every
// *http.Response acquired from a call must have its Body closed on every
// path from the acquisition to the function's exits. A leaked body pins the
// keep-alive connection; under the marketing client's bounded-concurrency
// transport a handful of leaks exhausts the pool and the audit stalls —
// a failure mode that looks exactly like a slow shard.
//
// The check runs the flow engine per acquisition. It discharges on:
//
//   - a Close call rooted at the response variable (resp.Body.Close()),
//     including deferred ones, which cover every later exit;
//   - an ownership escape: the response itself returned, passed whole as a
//     call argument, stored away, or sent on a channel — the receiver
//     becomes responsible (passing resp.Body to a reader is NOT an escape;
//     readers do not close).
//
// The `x, err := do()` error guard narrows paths: a branch under
// `err != nil` never held a body, and under `err == nil` only that branch
// does. There is no caller-excuse for error returns — a body acquired
// successfully must be closed before propagating any later error.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Bodyclose is the analyzer instance.
var Bodyclose = &Analyzer{
	Name: "bodyclose",
	Doc:  "http.Response bodies must be closed (or ownership passed on) on every path",
	Run:  runBodyclose,
}

func runBodyclose(pass *Pass) {
	for _, fd := range funcDecls(pass.Files) {
		for _, body := range funcBodiesIn(fd) {
			for _, acq := range responseAcquires(pass, body) {
				ob := &flowOb{
					acquire: acq.stmt,
					errObj:  acq.errObj,
					releases: func(n ast.Node) bool {
						return releasesResponse(pass.TypesInfo, n, acq.respObj)
					},
				}
				for _, leak := range scanObligation(pass, body, ob) {
					pass.ReportfScoped(leak, scopePos(fd),
						"response body of %s (acquired at line %d) is not closed on this path",
						acq.respObj.Name(), pass.Fset.Position(acq.pos).Line)
					break // one report per acquisition is enough signal
				}
			}
		}
	}
}

// funcBodiesIn yields fd's own body plus the body of every function literal
// inside it. A body obligation is local to the function that acquires it — a
// goroutine closure closes its own responses — so each body is scanned
// against its own statement tree.
func funcBodiesIn(fd *ast.FuncDecl) []*ast.BlockStmt {
	bodies := []*ast.BlockStmt{fd.Body}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	return bodies
}

// respAcquire is one statement binding a fresh *http.Response.
type respAcquire struct {
	stmt    ast.Stmt
	pos     token.Pos
	respObj types.Object
	errObj  types.Object
}

// responseAcquires finds assignments directly in this body (nested literals
// are scanned on their own) whose right-hand call returns a *http.Response
// bound to a named variable.
func responseAcquires(pass *Pass, body *ast.BlockStmt) []respAcquire {
	var out []respAcquire
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false // scanned on its own
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok {
			return true
		}
		respObj, errObj := bindResults(pass.TypesInfo, assign, sig)
		if respObj == nil {
			return true
		}
		stmt := enclosingStmt(body, assign)
		if stmt == nil {
			return true
		}
		out = append(out, respAcquire{stmt: stmt, pos: call.Pos(), respObj: respObj, errObj: errObj})
		return true
	})
	return out
}

// bindResults maps the callee's result tuple onto the assignment's
// left-hand sides, returning the bound *http.Response variable and its
// companion error variable (either may be nil).
func bindResults(info *types.Info, assign *ast.AssignStmt, sig *types.Signature) (respObj, errObj types.Object) {
	results := sig.Results()
	if results.Len() != len(assign.Lhs) {
		return nil, nil
	}
	for i := 0; i < results.Len(); i++ {
		id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := objOf(info, id)
		if obj == nil {
			continue
		}
		switch {
		case isHTTPResponsePtr(results.At(i).Type()):
			respObj = obj
		case isErrorType(results.At(i).Type()):
			errObj = obj
		}
	}
	return respObj, errObj
}

// releasesResponse reports whether node n discharges the body obligation
// for respObj: a Close rooted at it, or a whole-value escape.
func releasesResponse(info *types.Info, n ast.Node, respObj types.Object) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		switch x := node.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if id := rootIdent(sel.X); id != nil && objOf(info, id) == respObj {
					found = true
					return false
				}
			}
			for _, arg := range x.Args {
				if identResolves(info, arg, respObj) {
					found = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if identResolves(info, r, respObj) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if identResolves(info, r, respObj) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if identResolves(info, x.Value, respObj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// identResolves reports whether e is exactly (possibly parenthesized) an
// identifier for obj — a selector into obj, like resp.Body, does not count.
func identResolves(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && objOf(info, id) == obj
}

// isHTTPResponsePtr reports whether t is *net/http.Response.
func isHTTPResponsePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && namedIs(p.Elem(), "net/http", "Response")
}
