package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/core"
)

func TestParseScale(t *testing.T) {
	cases := map[string]core.Scale{"test": core.ScaleTest, "bench": core.ScaleBench, "full": core.ScaleFull}
	for in, want := range cases {
		got, err := parseScale(in)
		if err != nil || got != want {
			t.Errorf("parseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseScale("huge"); err == nil {
		t.Error("unknown scale: want error")
	}
}

func TestRunArgValidation(t *testing.T) {
	quiet := func(args ...string) error { return run(args, io.Discard, io.Discard) }
	if err := quiet(); err == nil {
		t.Error("no args: want usage error")
	}
	if err := quiet("walk", "table1"); err == nil {
		t.Error("bad verb: want usage error")
	}
	if err := quiet("-scale", "enormous", "run", "table1"); err == nil {
		t.Error("bad scale: want error")
	}
	if err := quiet("-scale", "test", "run", "tableZ"); err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Errorf("unknown target: got %v", err)
	}
}

func TestRunTable1EndToEnd(t *testing.T) {
	// The cheapest full-path target: builds the world and prints Table 1.
	var out bytes.Buffer
	if err := run([]string{"-scale", "test", "-seed", "5", "run", "table1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 1 — balanced target audience") {
		t.Errorf("no Table 1 in:\n%s", out.String())
	}
}

func TestScaledBehavior(t *testing.T) {
	cfg := scaledBehavior(1.5)
	if cfg.AffinityScale != 1.5 {
		t.Errorf("AffinityScale = %v", cfg.AffinityScale)
	}
	if cfg.BaseCTR == 0 {
		t.Error("defaults should be preserved")
	}
}

const transcriptFile = "testdata/run_all_test_seed1.txt"

// firstDiff names the first line where two texts part, for a failure message
// shorter than two 366-line transcripts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other: %d vs %d lines", len(g), len(w))
}

// The CLI's integration test: `-scale test -seed 1 run all` prints the
// committed transcript byte for byte (the lab's URL, the one line that
// differs between runs, goes to stderr), and -csv writes what ran.
func TestRunAllMatchesTranscript(t *testing.T) {
	want, err := os.ReadFile(transcriptFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "test", "-seed", "1", "-csv", dir, "run", "all"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "marketing API listening at http://127.0.0.1:") {
		t.Errorf("stderr lacks the lab's URL: %q", stderr.String())
	}
	got, wrote, _ := strings.Cut(stdout.String(), "wrote ")
	if got != string(want) {
		t.Fatalf("`run all` departs from %s at %s", transcriptFile, firstDiff(got, string(want)))
	}
	for _, name := range []string{"campaign1_stock.csv", "campaign2_stock_capped.csv", "campaign3_synthetic.csv",
		"campaign4_employment.csv", "appendixA_poverty.csv", "privacy_sweep.json"} {
		if !strings.Contains(wrote, filepath.Join(dir, name)+"\n") {
			t.Errorf("no \"wrote …%s\" line in %q", name, wrote)
		}
	}

	// The sweep beside the CSVs parses, with the full 3×3 grid and the
	// baseline (off) level first.
	data, err := os.ReadFile(filepath.Join(dir, "privacy_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sweep core.PrivacySweepResult
	if err := json.Unmarshal(data, &sweep); err != nil {
		t.Fatalf("privacy_sweep.json does not parse: %v", err)
	}
	if sweep.Schema != core.PrivacySweepSchema || len(sweep.Cells) != 9 {
		t.Fatalf("schema %q, %d cells; want %q, 9", sweep.Schema, len(sweep.Cells), core.PrivacySweepSchema)
	}
	if off := sweep.Cells[0]; off.K != 0 || off.Epsilon != 0 || off.Level != "off" || off.MeasurableAds == 0 {
		t.Errorf("first cell should be the measured off baseline, got %+v", off)
	}
}

// An artifact is a function of (seed, scale): rendered on a fresh evaluation
// it equals its block of `run all`. One evaluation renders every row in
// order — progress lines to the transcript only, so each block is known, and
// the whole is checked against the committed transcript — then every row is
// rendered again on an evaluation of its own. A new row is covered without
// editing this test.
func TestEveryArtifactAloneEqualsItsBlockOfRunAll(t *testing.T) {
	want, err := os.ReadFile(transcriptFile)
	if err != nil {
		t.Fatal(err)
	}
	var transcript bytes.Buffer
	all := &core.Evaluation{Seed: 1, Scale: core.ScaleTest, Out: &transcript}
	defer all.Close()
	blocks := map[string]string{}
	for _, a := range artifacts {
		var block bytes.Buffer
		if err := a.render(all, io.MultiWriter(&transcript, &block)); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		transcript.WriteByte('\n')
		blocks[a.name] = block.String()
	}
	if transcript.String() != string(want) {
		t.Fatalf("the rows rendered in order depart from %s at %s", transcriptFile, firstDiff(transcript.String(), string(want)))
	}
	for _, a := range artifacts {
		a := a
		t.Run(a.name, func(t *testing.T) {
			e := &core.Evaluation{Seed: 1, Scale: core.ScaleTest}
			defer e.Close()
			var alone bytes.Buffer
			if err := a.render(e, &alone); err != nil {
				t.Fatal(err)
			}
			if alone.String() != blocks[a.name] {
				t.Errorf("alone it departs from its block of `run all` at %s", firstDiff(alone.String(), blocks[a.name]))
			}
		})
	}
}

// The documents name artifacts; the table is what runs. Every `run <x>` in
// DESIGN.md §3's CLI column is a row, and -h and the package comment list
// every row.
func TestDocsNameOnlyRows(t *testing.T) {
	rows := map[string]bool{}
	for _, a := range artifacts {
		rows[a.name] = true
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## 3. ")
	section, _, _ = strings.Cut(section, "\n## ")
	cited := regexp.MustCompile("`run ([A-Za-z0-9]+)`").FindAllStringSubmatch(section, -1)
	if len(cited) < 20 {
		t.Fatalf("found only %d `run <x>` citations in DESIGN.md §3", len(cited))
	}
	for _, m := range cited {
		if !rows[strings.ToLower(m[1])] {
			t.Errorf("DESIGN.md §3 cites `run %s`, which is not a row of the artifacts table", m[1])
		}
	}

	var help bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &help); err != nil {
		t.Fatalf("-h: %v", err)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	comment, _, _ := strings.Cut(string(src), "\npackage main")
	for name := range rows {
		word := regexp.MustCompile(`\b` + name + `\b`)
		if !word.MatchString(help.String()) {
			t.Errorf("-h does not list %s", name)
		}
		if !word.MatchString(comment) {
			t.Errorf("the package comment does not list %s", name)
		}
	}
}
