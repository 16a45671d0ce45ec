package adlint

// Native fuzz coverage for the //adlint: directive parser. The parser sits
// in front of every suppression decision, so it must never panic on
// malformed input, and — more importantly — a malformed directive must be
// IGNORED, never misapplied: garbage after "allow" must not suppress an
// analyzer whose name does not literally appear before the reason.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzParseAllowNames checks the allow-list extractor's contract on
// arbitrary directive tails.
func FuzzParseAllowNames(f *testing.F) {
	f.Add(" detrand (reason)")
	f.Add(" detrand,walerr (two at once)")
	f.Add("")
	f.Add("(no names at all)")
	f.Add(" lockhold\t walerr")
	f.Add(" UPPER, sp aces,, (trailing")
	f.Add(" name-with-dash (rejected)")
	f.Add(strings.Repeat(",", 1000))
	f.Fuzz(func(t *testing.T, tail string) {
		names := parseAllowNames(tail)
		for _, n := range names {
			if !isIdent(n) {
				t.Fatalf("parseAllowNames(%q) produced non-identifier %q", tail, n)
			}
			// An extracted name must literally occur in the tail before any
			// parenthesized reason: suppression must never apply to an
			// analyzer the author did not spell out.
			prefix := tail
			if i := strings.Index(tail, "("); i >= 0 {
				prefix = tail[:i]
			}
			if !strings.Contains(prefix, n) {
				t.Fatalf("parseAllowNames(%q) invented name %q", tail, n)
			}
		}
	})
}

// FuzzIndexDirectives synthesizes a source file around an arbitrary comment
// body and runs the full directive indexer over the parsed result: no
// panic, an allow entry only ever records identifier-shaped names, and a
// comment whose verb is not exactly "allow" indexes nothing.
func FuzzIndexDirectives(f *testing.F) {
	f.Add("//adlint:allow detrand (seeded by hand)")
	f.Add("//adlint:deterministic")
	f.Add("//adlint:allow")
	f.Add("//adlint:allownothing")
	f.Add("//adlint: allow detrand (space breaks the verb)")
	f.Add("//adlint:allow detrand walerr")
	f.Add("// ordinary comment")
	f.Add("//adlint:deterministic=maybe")
	f.Fuzz(func(t *testing.T, comment string) {
		// Keep the synthesized line a single comment: a newline would change
		// which text ends up in the comment node, not exercise the parser.
		if strings.ContainsAny(comment, "\r\n") {
			t.Skip()
		}
		src := fmt.Sprintf("package p\n\n%s\nvar X int\n", comment)
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip() // not a legal comment line; nothing to index
		}
		pass := &Pass{Fset: fset, Files: []*ast.File{file}}
		pass.indexDirectives()
		allows := false
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//adlint:allow")
				allows = allows || ok && rest != "" && (rest[0] == ' ' || rest[0] == '\t')
			}
		}
		if !allows && len(pass.allow) > 0 {
			t.Fatalf("%q holds no allow directive but indexed %v", comment, pass.allow)
		}
		for key, names := range pass.allow {
			if !strings.HasPrefix(key, "fuzz.go:") {
				t.Fatalf("allow key %q not anchored to the file", key)
			}
			for n := range names {
				if !isIdent(n) {
					t.Fatalf("indexDirectives admitted non-identifier %q from %q", n, comment)
				}
			}
		}
	})
}
