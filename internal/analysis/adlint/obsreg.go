package adlint

import (
	"go/ast"
	"strings"
)

// Obsreg enforces the metric-naming discipline of the obs registry:
//
//   - Registry.Counter/Gauge/Histogram must be called with a constant name,
//     or with a `CONST + "|" + label` concatenation whose left operand is a
//     constant containing the "|" separator (the repo's name|label
//     convention for per-route series). Fully dynamic names create
//     unbounded metric cardinality and unstable extract schemas;
//   - one constant name must not be registered under two different metric
//     kinds in the same package — Counter("x") and Gauge("x") race to
//     create incompatible series in one registry slot.
var Obsreg = &Analyzer{
	Name: "obsreg",
	Run:  runObsreg,
}

// obsPkgSuffix marks the metrics registry package.
const obsPkgSuffix = "internal/obs"

// registryMethods are the get-or-create entry points on obs.Registry.
var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

func runObsreg(pass *Pass) {
	// kinds: constant metric name -> registered kind -> first position.
	type firstUse struct {
		kind string
		expr string
	}
	kinds := map[string]firstUse{}
	for _, fd := range funcDecls(pass.Files) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 {
				return true
			}
			f := calleeOf(pass.TypesInfo, call)
			if f == nil || !isMethod(f) || !registryMethods[f.Name()] {
				return true
			}
			recv := recvNamed(f)
			if recv == nil || recv.Obj().Name() != "Registry" || recv.Obj().Pkg() == nil ||
				!pathHasSuffix(recv.Obj().Pkg().Path(), obsPkgSuffix) {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			name, constant := constStringOf(pass.TypesInfo, arg)
			if !constant && !isConstLabelConcat(pass, arg) {
				pass.Reportf(arg.Pos(),
					"dynamic metric name passed to Registry.%s; use a package constant, or a CONST+\"|\"+label concatenation for per-label series",
					f.Name())
				return true
			}
			if constant {
				if prev, seen := kinds[name]; seen && prev.kind != f.Name() {
					pass.Reportf(arg.Pos(),
						"metric %q registered as %s here but as %s elsewhere in this package; one name maps to one kind",
						name, f.Name(), prev.kind)
				} else if !seen {
					kinds[name] = firstUse{kind: f.Name(), expr: exprText(pass.Fset, arg)}
				}
			}
			return true
		})
	}
}

// isConstLabelConcat accepts the repo's per-label naming idiom: a binary `+`
// whose leftmost constant operand contains the "|" separator, e.g.
// MetricRequests + "|" + route or MetricRequests + ".2xx|" + route. The
// constant prefix pins the metric family; only the label part varies.
func isConstLabelConcat(pass *Pass, e ast.Expr) bool {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	// Left-associative parse: the leftmost operand chain holds the prefix.
	left := bin.X
	for {
		if inner, ok := ast.Unparen(left).(*ast.BinaryExpr); ok {
			left = inner.X
			continue
		}
		break
	}
	prefix, constant := constStringOf(pass.TypesInfo, ast.Unparen(left))
	if !constant {
		return false
	}
	// The separator may live in the leftmost constant itself or in a later
	// constant segment (MetricRequests + ".2xx|" + route); check the whole
	// constant-foldable prefix of the concatenation.
	if strings.Contains(prefix, "|") {
		return true
	}
	if whole, ok := constStringOf(pass.TypesInfo, bin.X); ok {
		return strings.Contains(whole, "|")
	}
	return false
}
