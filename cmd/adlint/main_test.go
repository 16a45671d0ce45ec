package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/analysis/adlint"
)

// TestRun holds the command to what CI's annotation step reads: the exit
// status, and one line per finding that the problem matcher in
// .github/adlint-matcher.json parses back into the finding's file (relative
// to the working directory), line, column, analyzer and message.
func TestRun(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, ".github", "adlint-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var matcher struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp                            string
				File, Line, Column, Code, Message int
			}
		}
	}
	if err := json.Unmarshal(raw, &matcher); err != nil || len(matcher.ProblemMatcher) != 1 || len(matcher.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("adlint-matcher.json: want one matcher with one pattern, got %s (%v)", raw, err)
	}
	pat := matcher.ProblemMatcher[0].Pattern[0]
	re := regexp.MustCompile(pat.Regexp)
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
			pkgs, err := adlint.Load(root, []string{"./" + dir})
			if err != nil {
				t.Fatal(err)
			}
			diags := adlint.Run(pkgs, adlint.All())
			lines := strings.FieldsFunc(text.String(), func(r rune) bool { return r == '\n' })
			if len(lines) != len(diags) {
				t.Fatalf("%d lines for %d findings: %q", len(lines), len(diags), text.String())
			}
			seen := false
			for i, l := range lines {
				m := re.FindStringSubmatch(l)
				if m == nil {
					t.Fatalf("the matcher does not parse %q", l)
				}
				d := diags[i]
				got := []string{m[pat.File], m[pat.Line], m[pat.Column], m[pat.Code], m[pat.Message]}
				wantFields := []string{dir + "/" + filepath.Base(d.Pos.Filename), fmt.Sprint(d.Pos.Line), fmt.Sprint(d.Pos.Column), d.Analyzer, d.Message}
				if !reflect.DeepEqual(got, wantFields) {
					t.Errorf("the matcher reads %q as %q, want %q", l, got, wantFields)
				}
				seen = seen || d.Analyzer == tc.analyzer
			}
			if tc.analyzer != "" && !seen {
				t.Errorf("no %s finding in %q", tc.analyzer, text.String())
			}
		})
	}

	t.Run("load error", func(t *testing.T) {
		var out, stderr bytes.Buffer
		if code := run(root, []string{"./internal/analysis/testdata/src/nosuch"}, &out, &stderr); code != 2 {
			t.Fatalf("exit %d, want 2; stderr %q", code, stderr.String())
		}
		if out.Len() != 0 || !strings.HasPrefix(stderr.String(), "adlint: ") {
			t.Errorf("stdout %q, stderr %q: want nothing on stdout and the load error on stderr", out.String(), stderr.String())
		}
	})
}
