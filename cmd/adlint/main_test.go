package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/analysis/adlint"
)

// TestRun holds the command to what CI's annotation step reads: the exit
// status, vet-style lines with paths relative to the working directory, and
// the five JSON fields of each finding.
func TestRun(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	analyzers := map[string]bool{}
	for _, a := range adlint.All() {
		analyzers[a.Name] = true
	}
	for _, tc := range []struct {
		fixture  string
		analyzer string // the analyzer the fixture violates; "" for a clean one
	}{
		{"detrand/internal/platform", "detrand"},
		{"lockhold/a", "lockhold"},
		{"ctxflow/internal/marketing", "ctxflow"},
		{"walerr/internal/store", "walerr"},
		{"obsreg/a", "obsreg"},
		{"goroleak/internal/node", "goroleak"},
		{"detrand/clocked", ""},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := "internal/analysis/testdata/src/" + tc.fixture
			want := 0
			if tc.analyzer != "" {
				want = 1
			}

			var text, stderr bytes.Buffer
			if code := run(root, []string{"./" + dir}, &text, &stderr); code != want {
				t.Fatalf("exit %d, want %d; stderr %q", code, want, stderr.String())
			}
			line := regexp.MustCompile(`^` + regexp.QuoteMeta(dir) + `/\w+\.go:\d+:\d+: (\w+): .+$`)
			lines := strings.FieldsFunc(text.String(), func(r rune) bool { return r == '\n' })
			seen := false
			for _, l := range lines {
				m := line.FindStringSubmatch(l)
				if m == nil || !analyzers[m[1]] {
					t.Fatalf("line %q is not file:line:col: analyzer: message under %s", l, dir)
				}
				seen = seen || m[1] == tc.analyzer
			}
			if tc.analyzer != "" && !seen {
				t.Errorf("no %s finding in %q", tc.analyzer, text.String())
			}

			var out bytes.Buffer
			stderr.Reset()
			if code := run(root, []string{"-json", "./" + dir}, &out, &stderr); code != want {
				t.Fatalf("-json: exit %d, want %d; stderr %q", code, want, stderr.String())
			}
			if tc.analyzer == "" && strings.TrimSpace(out.String()) != "[]" {
				t.Fatalf("-json on a clean package printed %q, want []", out.String())
			}
			var findings []map[string]any
			if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
				t.Fatalf("-json output %q: %v", out.String(), err)
			}
			if len(findings) != len(lines) {
				t.Fatalf("-json gave %d findings, the text %d", len(findings), len(lines))
			}
			for i, f := range findings {
				if len(f) != 5 {
					t.Fatalf("finding %v: want the fields file, line, column, analyzer, message", f)
				}
				got := fmt.Sprintf("%v:%v:%v: %v: %v", f["file"], f["line"], f["column"], f["analyzer"], f["message"])
				if got != lines[i] {
					t.Errorf("finding %d: JSON renders as %q, the text line is %q", i, got, lines[i])
				}
			}
		})
	}

	t.Run("load error", func(t *testing.T) {
		var out, stderr bytes.Buffer
		if code := run(root, []string{"-json", "./internal/analysis/testdata/src/nosuch"}, &out, &stderr); code != 2 {
			t.Fatalf("exit %d, want 2; stderr %q", code, stderr.String())
		}
		if out.Len() != 0 || !strings.HasPrefix(stderr.String(), "adlint: ") {
			t.Errorf("stdout %q, stderr %q: want nothing on stdout and the load error on stderr", out.String(), stderr.String())
		}
	})
}
