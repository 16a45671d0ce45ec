package adlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Walerr guards the durability contract: an error discarded on the
// persistence path silently voids the persist-before-respond barrier.
// It flags three shapes of discarded error (bare expression statement,
// deferred call, or blank assignment):
//
//   - calls to exported, error-returning methods on types defined in a
//     store package (import-path suffix internal/store) — the WAL,
//     snapshot, and barrier APIs — from any package;
//   - inside store packages, any discarded Sync/Flush/Write/WriteString
//     error regardless of receiver (the io.Writer persistence path);
//   - anywhere, a discarded Close/Flush/Sync on a handle the same function
//     demonstrably wrote to (a receiver of Write-like method calls, or an
//     argument to a Write*/Encode*/Fprint*/Copy call) — closing a written
//     file is the last chance to observe a buffered write failure.
//
// Deliberately best-effort sites (directory fsync, cleanup in error paths
// where the original error is already latched) carry an
// //adlint:allow walerr annotation with the reason.
var Walerr = &Analyzer{
	Name: "walerr",
	Run:  runWalerr,
}

// storePkgSuffix marks the durability subsystem.
const storePkgSuffix = "internal/store"

// storeWriteNames are the method names whose errors must never be dropped
// inside a store package.
var storeWriteNames = map[string]bool{
	"Sync": true, "Flush": true, "Write": true, "WriteString": true,
}

// closeLikeNames are flagged anywhere when the handle was written to.
var closeLikeNames = map[string]bool{"Close": true, "Flush": true, "Sync": true}

func runWalerr(pass *Pass) {
	inStore := pathHasSuffix(pass.Pkg.Path(), storePkgSuffix)
	for _, fd := range funcDecls(pass.Files) {
		written := writtenObjects(pass, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch node := n.(type) {
			case *ast.ExprStmt:
				call, _ = node.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = node.Call
			case *ast.AssignStmt:
				call = blankedErrorCall(pass.TypesInfo, node)
			}
			if call == nil {
				return true
			}
			checkDiscarded(pass, call, inStore, written)
			return true
		})
	}
}

// checkDiscarded reports a discarded-error call that matches one of the
// walerr rules.
func checkDiscarded(pass *Pass, call *ast.CallExpr, inStore bool, written map[types.Object]bool) {
	f := calleeOf(pass.TypesInfo, call)
	if f == nil || !returnsError(f) {
		return
	}
	// Rule 1: store-API calls, from anywhere.
	if recv := recvNamed(f); recv != nil && f.Exported() && recv.Obj().Pkg() != nil &&
		pathHasSuffix(recv.Obj().Pkg().Path(), storePkgSuffix) {
		pass.Reportf(call.Pos(),
			"error from %s.%s discarded; durability failures must be propagated or logged", recv.Obj().Name(), f.Name())
		return
	}
	// Rule 2: write-path names inside the store package itself.
	if inStore && isMethod(f) && storeWriteNames[f.Name()] {
		pass.Reportf(call.Pos(),
			"error from %s discarded on the persistence path; a swallowed %s error breaks the durability guarantee",
			exprText(pass.Fset, call.Fun), f.Name())
		return
	}
	// Rule 3: close-like calls on handles this function wrote to.
	if isMethod(f) && closeLikeNames[f.Name()] {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		root := rootIdent(sel.X)
		if root == nil {
			return
		}
		if obj := objOf(pass.TypesInfo, root); obj != nil && written[obj] {
			pass.Reportf(call.Pos(),
				"error from %s discarded but %s was written to in this function; %s is the last chance to surface a buffered write failure",
				exprText(pass.Fset, call.Fun), root.Name, f.Name())
		}
	}
}

// blankedErrorCall matches assignments that discard a call's error result
// through the blank identifier (`_ = f()`, `_, _ = g()`, `x, _ = h()` where
// the blanked position is the error).
func blankedErrorCall(info *types.Info, assign *ast.AssignStmt) *ast.CallExpr {
	if len(assign.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	f := calleeOf(info, call)
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(assign.Lhs) {
		// Single-value context (`_ = f()` with one result) still matches
		// when lengths agree; anything else is not a plain discard.
		if !(sig.Results().Len() >= 1 && len(assign.Lhs) == 1) {
			return nil
		}
	}
	for i, lhs := range assign.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		if len(assign.Lhs) == sig.Results().Len() && isErrorType(sig.Results().At(i).Type()) {
			return call
		}
		if len(assign.Lhs) == 1 && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) {
			return call
		}
	}
	return nil
}

// writtenObjects collects the variables fd demonstrably writes to: receivers
// of Write-like methods and arguments to Write*/Encode*/Fprint*/Copy-named
// calls. Used by rule 3 to tell a written file handle from a read-only one.
func writtenObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	written := map[types.Object]bool{}
	note := func(e ast.Expr) {
		if root := rootIdent(e); root != nil {
			if obj := objOf(pass.TypesInfo, root); obj != nil {
				written[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if strings.HasPrefix(sel.Sel.Name, "Write") {
				note(sel.X)
			}
		}
		name := calleeName(pass.TypesInfo, call)
		if name == "" {
			return true
		}
		if strings.Contains(name, "Write") || strings.Contains(name, "Encod") ||
			strings.HasPrefix(name, "Fprint") || name == "Copy" {
			for _, arg := range call.Args {
				note(arg)
			}
		}
		return true
	})
	return written
}

// calleeName returns the bare name of the called function, "" when
// unresolvable.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if f := calleeOf(info, call); f != nil {
		return f.Name()
	}
	// Conversions like bufio.NewWriter(f) resolve through Uses on the Sel.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
