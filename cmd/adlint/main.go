// Command adlint runs the project's custom static-analysis suite over Go
// packages and prints vet-style diagnostics.
//
// Usage:
//
//	go run ./cmd/adlint [packages]
//
// With no package arguments it analyzes ./... from the current directory.
// Each finding is one line, file:line:col: analyzer: message, with the path
// relative to the current directory; CI reads these lines through the
// problem matcher in .github/adlint-matcher.json. The process exits 1 when
// any diagnostic is reported and 2 on usage or load errors, mirroring go
// vet. Every finding names its analyzer, so one analyzer's findings are a
// filter on that column. Findings are suppressed per line with
// //adlint:allow annotations; see the adlint package documentation for the
// grammar and the invariant each analyzer enforces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/adaudit/impliedidentity/internal/analysis/adlint"
)

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
	fs.Usage = func() { fmt.Fprintf(stderr, "usage: adlint [packages]\n") }
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
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(dir, file); err == nil {
			file = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "adlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
