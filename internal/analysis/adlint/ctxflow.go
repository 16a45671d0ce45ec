package adlint

import (
	"go/ast"
	"go/types"
)

// Ctxflow enforces context propagation on the API surface:
//
//   - any function with a context.Context parameter must not call
//     context.Background or context.TODO in its body (that severs the
//     cancellation chain — derive from the parameter instead);
//   - any HTTP handler (a function with an *http.Request parameter) must
//     use r.Context(), not a fresh Background context;
//   - exported functions and methods in marketing API packages
//     (import-path suffix internal/marketing) must actually use the
//     context parameter they accept — a dropped context means timeouts
//     and cancellation silently stop working for that call.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Run:  runCtxflow,
}

// marketingPkgSuffix scopes the dropped-context rule to the API client and
// server surface.
const marketingPkgSuffix = "internal/marketing"

func runCtxflow(pass *Pass) {
	inMarketing := pathHasSuffix(pass.Pkg.Path(), marketingPkgSuffix)
	for _, fd := range funcDecls(pass.Files) {
		ctxParam := paramOfType(pass.TypesInfo, fd, func(t types.Type) bool {
			return namedIs(t, "context", "Context")
		})
		reqParam := paramOfType(pass.TypesInfo, fd, func(t types.Type) bool {
			return namedIs(t, "net/http", "Request")
		})

		if ctxParam != nil || reqParam != nil {
			checkFreshContext(pass, fd, ctxParam)
		}
		if inMarketing && ctxParam != nil && fd.Name.IsExported() &&
			!usesObject(pass.TypesInfo, fd.Body, ctxParam) {
			pass.Reportf(fd.Name.Pos(),
				"exported %s accepts a context.Context (%s) but never uses it; propagate it into downstream calls or drop the parameter",
				fd.Name.Name, ctxParam.Name())
		}
	}
}

// checkFreshContext flags context.Background()/context.TODO() calls inside a
// function that already has a context available (a ctx parameter or an
// *http.Request whose Context method supplies one).
func checkFreshContext(pass *Pass, fd *ast.FuncDecl, ctxParam types.Object) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(pass.TypesInfo, call)
		if f == nil || isMethod(f) || pkgPathOf(f) != "context" {
			return true
		}
		if f.Name() != "Background" && f.Name() != "TODO" {
			return true
		}
		have := "the request's r.Context()"
		if ctxParam != nil {
			have = "the " + ctxParam.Name() + " parameter"
		}
		pass.Reportf(call.Pos(),
			"context.%s severs the cancellation chain; derive from %s instead", f.Name(), have)
		return true
	})
}
