package adlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked target package.
type Package struct {
	Fset *token.FileSet
	// Files are the parsed non-test source files, with comments.
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
}

// runGoList invokes `go list` in dir with the given extra arguments and
// decodes the JSON package stream.
func runGoList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("adlint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("adlint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load resolves the package patterns (relative to dir, which must sit inside
// a module), compiles export data for their dependency graph, and
// type-checks each matched package from source. Test files are not analyzed:
// the suite guards production invariants, and tests legitimately use wall
// clocks and best-effort cleanup.
//
// Wildcard patterns follow go tooling rules, so `./...` never descends into
// testdata directories — the analyzer fixtures, which contain violations by
// design, are only reachable by naming their directories explicitly (which
// is what the analysistest harness does).
func Load(dir string, patterns []string) ([]*Package, error) {
	// Pass 1: which packages did the patterns match?
	matched, err := runGoList(dir, append([]string{"-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	targetSet := map[string]bool{}
	for _, p := range matched {
		targetSet[p.ImportPath] = true
	}

	// Pass 2: the full dependency graph with compiled export data. This is
	// the only build step; everything after runs in-process on the standard
	// library's go/parser + go/types.
	listed, err := runGoList(dir, append([]string{"-export", "-deps", "-json=Dir,ImportPath,Export,GoFiles,Standard"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if targetSet[p.ImportPath] && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("adlint: no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("adlint: parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("adlint: type-checking %s: %v", t.ImportPath, err)
		}
		out = append(out, &Package{
			Fset:      fset,
			Files:     files,
			Types:     pkg,
			TypesInfo: info,
		})
	}
	return out, nil
}
