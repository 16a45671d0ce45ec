package adlint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgSuffixes lists the packages whose outputs must replay
// bit-identically under a fixed seed: the delivery engine, the fault
// schedule, the synthetic voters and population and the generator they and
// the engine draw from, the statistics kernels, the load generator's
// workload decisions, and the privacy layer (whose noise stream must be a
// pure function of seed and cell key for the router/single-process
// equivalence proof). The list is the one way a package is made
// determinism-critical.
var deterministicPkgSuffixes = []string{
	"internal/platform",
	"internal/faults",
	"internal/voter",
	"internal/population",
	"internal/mathrand",
	"internal/stats",
	"internal/loadgen",
	"internal/privacy",
	// The chaos schedule is a pure (seed, tick) function and the
	// coordinator's health model stamps outages from an injected clock: both
	// replay in soak logs only if they never touch the wall clock or the
	// global RNG.
	"internal/chaos",
	"internal/coordinator",
}

// globalRandExempt lists the math/rand package-level functions that are the
// sanctioned route to seeded determinism: constructors that the caller feeds
// an explicit source or seed. Everything else at package level draws from
// the process-global, boot-seeded generator.
var globalRandExempt = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes an explicit *rand.Rand
}

// Detrand flags nondeterminism sources in determinism-critical packages:
// wall-clock reads (time.Now, time.Since), draws from the process-global
// math/rand generator, and map iterations whose order leaks into an ordered
// output without a subsequent sort. The injectable-Clock pattern
// (obs.Clock) is inherently exempt: a clock.Now() call
// resolves to the interface method, never to time.Now.
var Detrand = &Analyzer{
	Name: "detrand",
	Run:  runDetrand,
}

func runDetrand(pass *Pass) {
	critical := false
	for _, suffix := range deterministicPkgSuffixes {
		if pathHasSuffix(pass.Pkg.Path(), suffix) {
			critical = true
			break
		}
	}
	if !critical {
		return
	}
	for _, fd := range funcDecls(pass.Files) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				checkDetrandCall(pass, node)
			case *ast.RangeStmt:
				checkMapRange(pass, fd, node)
			}
			return true
		})
	}
}

// checkDetrandCall flags wall-clock reads and global-RNG draws.
func checkDetrandCall(pass *Pass, call *ast.CallExpr) {
	f := calleeOf(pass.TypesInfo, call)
	if f == nil {
		return
	}
	switch pkgPathOf(f) {
	case "time":
		if !isMethod(f) && (f.Name() == "Now" || f.Name() == "Since" || f.Name() == "Until") {
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in determinism-critical package %s; inject a Clock or derive timing from the seed",
				f.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if !isMethod(f) && !globalRandExempt[f.Name()] {
			pass.Reportf(call.Pos(),
				"global rand.%s draws from the process-wide generator; use a seeded rand.New(rand.NewSource(seed))",
				f.Name())
		}
	}
}

// checkMapRange flags `for ... range m` over a map when the iteration order
// escapes into ordered output — an append to a variable declared outside the
// loop, a channel send, or direct printing — unless the enclosing function
// later sorts the accumulated value (the repo's collect-then-sort idiom).
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(node.Pos(),
				"channel send inside map iteration publishes elements in nondeterministic order; collect and sort first")
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(pass.TypesInfo.Uses[id]) {
				// Builtin append: find the accumulated variable.
				if len(node.Args) == 0 {
					return true
				}
				root := rootIdent(node.Args[0])
				if root == nil {
					return true
				}
				obj := objOf(pass.TypesInfo, root)
				if obj == nil || obj.Pos() > rng.Pos() {
					// Declared inside the loop: per-iteration scratch.
					return true
				}
				if sortedInFunc(pass.TypesInfo, fd, obj) {
					return true
				}
				pass.Reportf(node.Pos(),
					"append to %q inside map iteration depends on map order; sort the result afterwards or annotate", root.Name)
				return true
			}
			if f := calleeOf(pass.TypesInfo, node); f != nil && pkgPathOf(f) == "fmt" &&
				(strings.HasPrefix(f.Name(), "Fprint") || strings.HasPrefix(f.Name(), "Print")) {
				pass.Reportf(node.Pos(),
					"fmt.%s inside map iteration emits elements in nondeterministic order; collect and sort first", f.Name())
			}
		}
		return true
	})
}

// isBuiltin reports whether obj is a language builtin (or unresolved, which
// only builtins are after a successful type-check).
func isBuiltin(obj types.Object) bool {
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// sortedInFunc reports whether fd contains a sort.* / slices.Sort* call
// whose arguments mention obj — the collect-then-sort suppression.
func sortedInFunc(info *types.Info, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeOf(info, call)
		if f == nil {
			return true
		}
		if p := pkgPathOf(f); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if usesObject(info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
