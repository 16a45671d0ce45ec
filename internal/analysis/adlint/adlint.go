// Package adlint is a custom static-analysis suite that mechanically
// enforces the invariants this reproduction's correctness rests on:
//
//   - seeded determinism: audit results must replay bit-identically under a
//     fixed seed, so determinism-critical packages must not read the wall
//     clock, draw from the process-global RNG, or depend on map iteration
//     order (analyzer detrand);
//   - lock discipline: no blocking call (sleep, file or network I/O, channel
//     wait) while a sync.Mutex/RWMutex is held — the bug class the client
//     throttle fixed by reserving its slot under the lock and sleeping
//     outside it (analyzer lockhold);
//   - context propagation: API-surface methods and HTTP handlers must thread
//     their context.Context instead of dropping it or substituting
//     context.Background (analyzer ctxflow);
//   - durability: errors from WAL/snapshot/fsync APIs and from writes on the
//     persistence path must be handled, not discarded — a swallowed fsync
//     error silently voids the persist-before-respond guarantee (analyzer
//     walerr);
//   - bounded metric cardinality: metric names passed to internal/obs must
//     be constants, with dynamic parts only in the "name|label" position
//     (analyzer obsreg);
//   - goroutine lifecycles: every go statement in the long-lived subsystems
//     has a stop path the spawner can exercise (analyzer goroleak).
//
// Transport hygiene (every *http.Response body closed) is not an analyzer:
// marketing.Client is the one reader of responses in the program, and its
// tests count the closes.
//
// The suite is deliberately dependency-free: it drives `go list -export` for
// package discovery and export data, and type-checks with the standard
// library's go/parser + go/types. The analyzer API mirrors the shape of
// golang.org/x/tools/go/analysis so the analyzers could be ported to a real
// multichecker/vettool with mechanical changes only.
//
// # Escape hatches
//
// A finding can be suppressed with an annotation comment:
//
//	//adlint:allow <name>[,<name>...] (reason)
//
// placed on the offending line or on the line directly above it. Which
// packages detrand holds to determinism is its built-in list; no directive
// changes it.
package adlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects the pass's package and reports
// findings through pass.Reportf.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //adlint:allow annotations.
	Name string
	// Run executes the check over one package.
	Run func(*Pass)
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// allow maps "filename:line" to the analyzer names allowed there.
	allow map[string]map[string]bool

	diags *[]Diagnostic
}

// directivePrefix introduces every adlint annotation comment.
const directivePrefix = "//adlint:"

// indexDirectives scans the package's comments once and records allow
// annotations by file:line. A comment with any other verb is ignored.
func (p *Pass) indexDirectives() {
	p.allow = map[string]map[string]bool{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				verb, tail := splitVerb(strings.TrimPrefix(text, directivePrefix))
				if verb != "allow" {
					continue
				}
				names := parseAllowNames(tail)
				if len(names) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if p.allow[key] == nil {
					p.allow[key] = map[string]bool{}
				}
				for _, n := range names {
					p.allow[key][n] = true
				}
			}
		}
	}
}

// splitVerb cuts a directive body at the first whitespace: the verb must be
// spelled exactly ("//adlint:allowdetrand" is malformed and ignored, it
// does NOT suppress detrand), with everything after the separator as the
// verb's tail.
func splitVerb(rest string) (verb, tail string) {
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], rest[i+1:]
	}
	return rest, ""
}

// parseAllowNames extracts the analyzer names from the tail of an allow
// directive: comma- or space-separated identifiers, terminated by a
// parenthesized free-form reason. The tail is cut at the first "(" before
// any splitting — fuzzing showed that a paren opening mid-token otherwise
// let identifier-shaped words inside the reason be misapplied as names.
func parseAllowNames(s string) []string {
	if i := strings.Index(s, "("); i >= 0 {
		s = s[:i]
	}
	var names []string
	for _, field := range strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' }) {
		if isIdent(field) {
			names = append(names, field)
		}
	}
	return names
}

// isIdent reports whether s is a plausible analyzer name.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// Reportf records a finding at pos unless an allow directive naming the
// analyzer sits on that line or on the line directly above it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if p.allow[fmt.Sprintf("%s:%d", position.Filename, line)][p.Analyzer.Name] {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the loaded packages and returns every
// finding, sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			pass.indexDirectives()
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full suite in stable order. Each analyzer is kept because
// it catches its target violation seeded into real (non-fixture) code where
// go vet does not, and tier-1 tests do not already cover what it guards
// (DESIGN §5b).
func All() []*Analyzer {
	return []*Analyzer{Detrand, Lockhold, Ctxflow, Walerr, Obsreg, Goroleak}
}
