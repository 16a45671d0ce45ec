package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/adaudit/impliedidentity/internal/loadgen"
	"github.com/adaudit/impliedidentity/internal/obs"
)

// TestSelfHostedSmokeRun is the end-to-end smoke: a fixed-seed self-hosted
// run must complete without errors, print the latency table, and write a
// report whose client-side counts match the server-side /metrics counters
// embedded in it.
func TestSelfHostedSmokeRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	var buf strings.Builder
	err := run([]string{
		"-scenarios", "4", "-concurrency", "2", "-ads", "1", "-audience", "100",
		"-seed", "7", "-voters", "4000", "-logrows", "1500", "-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("smoke run: %v\noutput:\n%s", err, buf.String())
	}
	stdout := buf.String()
	for _, want := range []string{"Operation", "create_ad", "deliver", "insights", "req/s", "wrote " + out} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := loadgen.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 7 || rep.ScenariosCompleted != 4 || rep.ScenariosFailed != 0 || rep.Errors != 0 {
		t.Fatalf("report header: %+v", rep)
	}
	// Deterministic workload: 4 audiences + 4 campaigns + 4 ads + 4
	// delivers + 4×1×2 insights polls.
	wantOps := map[string]int64{
		loadgen.OpCreateAudience: 4,
		loadgen.OpCreateCampaign: 4,
		loadgen.OpCreateAd:       4,
		loadgen.OpDeliver:        4,
		loadgen.OpInsights:       8,
	}
	for op, n := range wantOps {
		got := rep.Operations[op]
		if got.Requests != n || got.Errors != 0 {
			t.Errorf("%s: %+v, want %d requests", op, got, n)
		}
		if got.Latency.Count != n || got.Latency.P50Ms < 0 || got.Latency.P99Ms < got.Latency.P50Ms {
			t.Errorf("%s latency: %+v", op, got.Latency)
		}
	}
	if rep.ServerMetrics == nil {
		t.Fatal("report should embed the server /metrics snapshot")
	}
	serverTotal := rep.ServerMetrics.Counters[obs.MetricRequests]
	// The scrape itself is not counted (GET /metrics is uninstrumented), so
	// server-side total equals the client's request count exactly.
	if serverTotal != rep.Requests {
		t.Errorf("server counted %d requests, client sent %d", serverTotal, rep.Requests)
	}
	if rep.ServerMetrics.Counters[obs.MetricRequests+"|POST /v1/ads"] != wantOps[loadgen.OpCreateAd] {
		t.Errorf("server POST /v1/ads counter: %d", rep.ServerMetrics.Counters[obs.MetricRequests+"|POST /v1/ads"])
	}
}

// TestChaosSmokeRun is the chaos smoke: a fault-injected self-hosted run
// with a fixed schedule seed must complete with zero surfaced errors —
// the retry layer absorbs every injected fault — and report the injection
// and retry counts.
func TestChaosSmokeRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "chaos.json")
	var buf strings.Builder
	err := run([]string{
		"-scenarios", "4", "-concurrency", "2", "-ads", "1", "-audience", "100",
		"-seed", "7", "-voters", "4000", "-logrows", "1500",
		"-fault-rate", "0.2", "-fault-seed", "42", "-fault-kinds", "all",
		"-retries", "8", "-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("chaos run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "injecting faults") {
		t.Errorf("stdout should announce fault injection:\n%s", buf.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := loadgen.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.ScenariosFailed != 0 {
		t.Fatalf("chaos run surfaced %d errors, %d failed scenarios", rep.Errors, rep.ScenariosFailed)
	}
	if rep.FaultsInjected == 0 {
		t.Error("report shows no injected faults; the chaos flags did nothing")
	}
	if !strings.Contains(buf.String(), "resilience") {
		t.Errorf("summary should include the resilience line:\n%s", buf.String())
	}
}

func TestFaultFlagsRequireSelfHost(t *testing.T) {
	for _, args := range [][]string{
		{"-target", "http://127.0.0.1:1", "-voterfile", "x", "-fault-rate", "0.2"},
		{"-target", "http://127.0.0.1:1", "-voterfile", "x", "-fault-seed", "9"},
		{"-target", "http://127.0.0.1:1", "-voterfile", "x", "-fault-kinds", "drop"},
		{"-target", "http://127.0.0.1:1", "-voterfile", "x", "-shed-cap", "10"},
	} {
		var buf strings.Builder
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "-target") {
			t.Errorf("args %v: want self-host conflict error, got %v", args, err)
		}
	}
}

func TestExternalTargetRequiresVoterFile(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-target", "http://127.0.0.1:1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-voterfile") {
		t.Errorf("want -voterfile error, got %v", err)
	}
}

// TestBadFlagsFailFast: a bad value, and a flag the chosen mode would
// silently ignore, are both refused before any world is built.
func TestBadFlagsFailFast(t *testing.T) {
	remote := []string{"-target", "http://127.0.0.1:1", "-voterfile", "x"}
	for _, tc := range []struct {
		args []string
		want string // substring of the error; empty accepts any error
		late bool   // refused only after the world is built
	}{
		{args: []string{"-scenarios", "many"}},
		// loadgen.New checks -mode, and it needs the hash pool.
		{args: []string{"-mode", "bursty", "-voters", "4000", "-logrows", "1500"}, want: "unknown mode", late: true},
		{args: []string{"-fsync", "none"}, want: "cannot be combined with an empty -store-dir"},
		{args: []string{"-fsync", "sometimes", "-store-dir", "x"}, want: "fsync"},
		{args: append(remote, "-voters", "4000"), want: "-voters applies to the self-hosted server and cannot be combined with -target"},
		{args: append(remote, "-logrows", "1500"), want: "-logrows applies to the self-hosted server and cannot be combined with -target"},
		{args: append(remote, "-store-dir", "x"), want: "-store-dir applies to the self-hosted server and cannot be combined with -target"},
	} {
		var buf strings.Builder
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: want error containing %q, got %v", tc.args, tc.want, err)
		}
		if !tc.late && strings.Contains(buf.String(), "self-hosting") {
			t.Errorf("args %v: a world was built before the flags were refused", tc.args)
		}
	}
}

// TestProbeTopology covers -target's router detection: a router answers
// GET /v1/topology with its shard count, while a single adplatform (404) and
// an unreachable target both read as 0.
func TestProbeTopology(t *testing.T) {
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/topology" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"shards":2}`)
	}))
	defer router.Close()
	single := httptest.NewServer(http.NotFoundHandler())
	defer single.Close()
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()

	for _, tc := range []struct {
		name, url string
		want      int
	}{
		{"router", router.URL, 2},
		{"single platform", single.URL, 0},
		{"closed", closed.URL, 0},
	} {
		probe, err := newProbeClient(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		if got := probeTopology(probe); got != tc.want {
			t.Errorf("%s: probeTopology = %d, want %d", tc.name, got, tc.want)
		}
	}
}
