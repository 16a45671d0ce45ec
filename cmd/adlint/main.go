// Command adlint runs the project's custom static-analysis suite over Go
// packages and prints vet-style diagnostics.
//
// Usage:
//
//	go run ./cmd/adlint [-json] [packages]
//
// With no package arguments it analyzes ./... from the current directory.
// The process exits 1 when any diagnostic is reported and 2 on usage or
// load errors, mirroring go vet. -json switches the output to a single JSON
// array of findings on stdout for machine consumers (CI annotation,
// editors); exit codes are unchanged. Every finding names its analyzer, so
// one analyzer's findings are a filter on that column. Findings are
// suppressed per line with //adlint:allow annotations; see the adlint
// package documentation for the grammar and the invariant each analyzer
// enforces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/adaudit/impliedidentity/internal/analysis/adlint"
)

// jsonFinding is the machine-readable shape of one diagnostic. Fields are
// stable: CI's problem-matcher step and the Makefile lint-json target
// consume them.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adlint:", err)
		os.Exit(2)
	}
	os.Exit(run(dir, os.Args[1:], os.Stdout, os.Stderr))
}

// run analyzes the packages args name, relative to dir, prints the findings
// to stdout with paths relative to dir, and returns the exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: adlint [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := adlint.Load(dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "adlint:", err)
		return 2
	}

	diags := adlint.Run(pkgs, adlint.All())
	findings := make([]jsonFinding, len(diags))
	for i, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(dir, file); err == nil {
			file = rel
		}
		findings[i] = jsonFinding{file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "adlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "adlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
