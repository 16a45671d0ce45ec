package main

import (
	"fmt"
	"strings"
	"testing"
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

// TestSelfHostedSmokeRun is the end-to-end smoke: a fixed-seed self-hosted
// run must complete every scenario and say so in its account line.
func TestSelfHostedSmokeRun(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-scenarios", "4", "-concurrency", "2", "-ads", "1", "-audience", "100",
		"-seed", "7", "-voters", "4000", "-logrows", "1500",
	}, &buf)
	if err != nil {
		t.Fatalf("smoke run: %v\noutput:\n%s", err, buf.String())
	}
	completed, total, retries, faults := account(t, buf.String())
	if completed != 4 || total != 4 || retries != 0 || faults != 0 {
		t.Errorf("account: %d/%d completed, %d retries, %d faults; want 4/4, 0, 0", completed, total, retries, faults)
	}
}

// TestChaosSmokeRun is the chaos smoke: a fault-injected self-hosted run
// with a fixed schedule seed must complete every scenario — the retry layer
// absorbs every injected fault — and account for the injections and retries.
func TestChaosSmokeRun(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-scenarios", "4", "-concurrency", "2", "-ads", "1", "-audience", "100",
		"-seed", "7", "-voters", "4000", "-logrows", "1500",
		"-fault-rate", "0.2", "-fault-seed", "42", "-fault-kinds", "all",
		"-retries", "8",
	}, &buf)
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

// TestServerFlagsRequireSelfHost: a flag that configures the self-hosted
// server is refused next to -target. The fault flags configure adload's own
// requests, so they pass and the run goes on to read -voterfile.
func TestServerFlagsRequireSelfHost(t *testing.T) {
	remote := []string{"-target", "http://127.0.0.1:1", "-voterfile", "x"}
	for _, flag := range [][]string{{"-shed-cap", "10"}, {"-privacy-k", "5"}, {"-privacy-epsilon", "1"}, {"-privacy-seed", "9"}} {
		var buf strings.Builder
		err := run(append(remote, flag...), &buf)
		if err == nil || !strings.Contains(err.Error(), "-target") {
			t.Errorf("%v: want self-host conflict error, got %v", flag, err)
		}
	}
	var buf strings.Builder
	err := run(append(remote, "-fault-rate", "0.2", "-fault-seed", "9", "-fault-kinds", "drop"), &buf)
	if err == nil || !strings.Contains(err.Error(), "open x") {
		t.Errorf("fault flags with -target: want the -voterfile read to fail, got %v", err)
	}
}

func TestExternalTargetRequiresVoterFile(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-target", "http://127.0.0.1:1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-voterfile") {
		t.Errorf("want -voterfile error, got %v", err)
	}
}

// TestZeroScenariosRefused: a count below one is an error, not the default
// workload, named by its flag, and it is refused before the self-hosted
// world is built.
func TestZeroScenariosRefused(t *testing.T) {
	for _, flag := range []string{"-scenarios", "-concurrency", "-ads", "-audience"} {
		for _, v := range []string{"0", "-1"} {
			var buf strings.Builder
			err := run([]string{flag, v, "-voters", "4000", "-logrows", "1500"}, &buf)
			if want := flag + " must be positive, got " + v; err == nil || err.Error() != want {
				t.Errorf("%s %s: got %v, want the error %q", flag, v, err, want)
			}
			if strings.Contains(buf.String(), "self-hosting") {
				t.Errorf("%s %s built a world before refusing:\n%s", flag, v, buf.String())
			}
		}
	}
}

// TestBadFlagsFailFast: a bad value, and a flag the run would silently
// ignore, are both refused before any world is built.
func TestBadFlagsFailFast(t *testing.T) {
	remote := []string{"-target", "http://127.0.0.1:1", "-voterfile", "x"}
	for _, tc := range []struct {
		args []string
		want string // substring of the error; empty accepts any error
	}{
		{args: []string{"-scenarios", "many"}},
		{args: []string{"-voterfile", "x"}, want: "-voterfile applies to -target and cannot be combined with a self-hosted run"},
		{args: []string{"-fsync", "none"}, want: "cannot be combined with an empty -store-dir"},
		{args: []string{"-fault-rate", "2"}, want: "rate 2 outside [0,1]"},
		{args: []string{"-fsync", "sometimes", "-store-dir", "x"}, want: "fsync"},
		{args: []string{"-logrows", "0"}, want: "-logrows must be positive, got 0"},
		{args: []string{"-voters", "-1"}, want: "-voters must be positive, got -1"},
		{args: []string{"-retries", "-1"}, want: "-retries must not be negative, got -1"},
		{args: []string{"-delivery-workers", "-1"}, want: "-delivery-workers must not be negative, got -1"},
		{args: []string{"-shed-cap", "-1"}, want: "-shed-cap must not be negative, got -1"},
		{args: append(remote, "-voters", "4000"), want: "-voters applies to the self-hosted server and cannot be combined with -target"},
		{args: append(remote, "-logrows", "1500"), want: "-logrows applies to the self-hosted server and cannot be combined with -target"},
		{args: append(remote, "-store-dir", "x"), want: "-store-dir applies to the self-hosted server and cannot be combined with -target"},
	} {
		var buf strings.Builder
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: want error containing %q, got %v", tc.args, tc.want, err)
		}
		if strings.Contains(buf.String(), "self-hosting") {
			t.Errorf("args %v: a world was built before the flags were refused", tc.args)
		}
	}
}
