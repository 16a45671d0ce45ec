package main

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/node"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// account parses adload's account line: scenarios completed and run,
// retries and injected faults.
func account(t *testing.T, stdout string) (completed, total int, retries, faults int64) {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if _, err := fmt.Sscanf(line, "%d/%d scenarios completed; %d retries, %d faults injected",
			&completed, &total, &retries, &faults); err == nil {
			return completed, total, retries, faults
		}
	}
	t.Fatalf("no account line in output:\n%s", stdout)
	return
}

// serve stands up what adload is pointed at: a marketing API over a small
// world on httptest, and the world's FL extract as adplatform -voterdir
// writes it. It returns the -target and -voterfile arguments.
func serve(t *testing.T) []string {
	t.Helper()
	wc := node.WorldConfig{Seed: 7, Voters: 4000, LogRows: 1500}
	// No ad-review rejection (default 1%), so every scenario's requests are
	// the same on every run. Review strictness has its own coverage in
	// internal/platform.
	platCfg := wc.PlatformConfig()
	platCfg.ReviewRejectProb = 0
	w, err := wc.Build(platCfg)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := node.NewStack(w.Platform, node.StackConfig{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(stack.Handler)
	t.Cleanup(ts.Close)

	reg, err := wc.Registry(demo.StateFL)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fl_voter_extract.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := voter.WriteFL(f, reg.Records); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return []string{"-target", ts.URL, "-voterfile", path}
}

// TestSelfHostedSmokeRun is the end-to-end smoke: a fixed-seed run against a
// server the test hosts must complete every scenario and say so in its
// account line.
func TestSelfHostedSmokeRun(t *testing.T) {
	var buf strings.Builder
	err := run(append(serve(t),
		"-scenarios", "4", "-concurrency", "2", "-ads", "1", "-audience", "100", "-seed", "7",
	), &buf)
	if err != nil {
		t.Fatalf("smoke run: %v\noutput:\n%s", err, buf.String())
	}
	completed, total, retries, faults := account(t, buf.String())
	if completed != 4 || total != 4 || retries != 0 || faults != 0 {
		t.Errorf("account: %d/%d completed, %d retries, %d faults; want 4/4, 0, 0", completed, total, retries, faults)
	}
}

// TestChaosSmokeRun is the chaos smoke: a fault-injected run with a fixed
// schedule seed must complete every scenario — the retry layer absorbs every
// injected fault — and account for the injections and retries.
func TestChaosSmokeRun(t *testing.T) {
	var buf strings.Builder
	err := run(append(serve(t),
		"-scenarios", "4", "-concurrency", "2", "-ads", "1", "-audience", "100", "-seed", "7",
		"-fault-rate", "0.2", "-fault-seed", "42", "-fault-kinds", "all",
		"-retries", "8",
	), &buf)
	if err != nil {
		t.Fatalf("chaos run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "injecting faults") {
		t.Errorf("stdout should announce fault injection:\n%s", buf.String())
	}
	completed, total, retries, faults := account(t, buf.String())
	if completed != 4 || total != 4 {
		t.Fatalf("chaos run completed %d of %d scenarios, want 4/4", completed, total)
	}
	if faults == 0 {
		t.Error("no injected faults; the chaos flags did nothing")
	}
	if retries == 0 {
		t.Error("no retries under a 20% fault rate")
	}
}

// TestExternalTargetRequiresVoterFile: adload starts no server, so a run
// without -target or without -voterfile is refused, naming both.
func TestExternalTargetRequiresVoterFile(t *testing.T) {
	for _, args := range [][]string{nil, {"-target", "http://127.0.0.1:1"}, {"-voterfile", "x"}} {
		var buf strings.Builder
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "-target") || !strings.Contains(err.Error(), "-voterfile") {
			t.Errorf("args %v: want an error naming -target and -voterfile, got %v", args, err)
		}
	}
}

// TestZeroScenariosRefused: a count below one is an error, not the default
// workload, named by its flag, and it is refused before anything else.
func TestZeroScenariosRefused(t *testing.T) {
	for _, flag := range []string{"-scenarios", "-concurrency", "-ads", "-audience"} {
		for _, v := range []string{"0", "-1"} {
			var buf strings.Builder
			err := run([]string{flag, v}, &buf)
			if want := flag + " must be positive, got " + v; err == nil || err.Error() != want {
				t.Errorf("%s %s: got %v, want the error %q", flag, v, err, want)
			}
			if buf.Len() != 0 {
				t.Errorf("%s %s printed before refusing:\n%s", flag, v, buf.String())
			}
		}
	}
}

// TestBadFlagsFailFast: a bad value is refused before any request goes out.
// The fault flags configure adload's own requests, so next to -target they
// pass and the run goes on to read -voterfile.
func TestBadFlagsFailFast(t *testing.T) {
	remote := []string{"-target", "http://127.0.0.1:1", "-voterfile", "x"}
	for _, tc := range []struct {
		args []string
		want string // substring of the error; empty accepts any error
	}{
		{args: []string{"-scenarios", "many"}},
		{args: []string{"-fault-rate", "2"}, want: "rate 2 outside [0,1]"},
		{args: []string{"-retries", "-1"}, want: "-retries must not be negative, got -1"},
		{args: []string{"-delivery-workers", "-1"}, want: "-delivery-workers must not be negative, got -1"},
		{args: append(remote, "-fault-rate", "0.2", "-fault-seed", "9", "-fault-kinds", "drop"), want: "open x"},
	} {
		var buf strings.Builder
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: want error containing %q, got %v", tc.args, tc.want, err)
		}
		if strings.Contains(buf.String(), "running") {
			t.Errorf("args %v: scenarios started before the flags were refused", tc.args)
		}
	}
}
