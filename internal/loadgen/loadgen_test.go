package loadgen

import (
	"context"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"github.com/adaudit/impliedidentity/internal/demo"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
	"github.com/adaudit/impliedidentity/internal/population"
	"github.com/adaudit/impliedidentity/internal/voter"
)

// The shared world: one registry/population/behaviour set reused by every
// test server, so the expensive generation runs once. Platforms are built
// per server (they hold mutable delivery state).
var (
	worldOnce sync.Once
	worldPop  *population.Population
	worldBhv  *population.Behavior
	worldFL   *voter.Registry
)

func world(t testing.TB) (*population.Population, *population.Behavior, *voter.Registry) {
	t.Helper()
	worldOnce.Do(func() {
		flCfg := voter.DefaultGeneratorConfig(demo.StateFL, 901)
		flCfg.NumVoters = 6000
		fl, err := voter.Generate(flCfg)
		if err != nil {
			panic(err)
		}
		pop, err := population.Build(population.Config{Seed: 902}, fl)
		if err != nil {
			panic(err)
		}
		behave, err := population.NewBehavior(population.DefaultBehaviorConfig())
		if err != nil {
			panic(err)
		}
		worldPop, worldBhv, worldFL = pop, behave, fl
	})
	return worldPop, worldBhv, worldFL
}

// newTarget self-hosts a fresh marketing server over a fresh platform.
func newTarget(t testing.TB) (*marketing.Client, *marketing.Server, *httptest.Server) {
	t.Helper()
	pop, behave, _ := world(t)
	cfg := platform.DefaultConfig(903)
	cfg.Training.LogRows = 2000
	cfg.ReviewRejectProb = 0
	p, err := platform.New(cfg, pop, behave)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := marketing.NewServer(p)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := marketing.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return client, srv, ts
}

// hashPool derives PII hashes for audience uploads from the voter registry,
// the same client-side hashing path the audit uses.
func hashPool(t testing.TB, n int) []string {
	t.Helper()
	_, _, fl := world(t)
	if n > len(fl.Records) {
		n = len(fl.Records)
	}
	hashes := make([]string, 0, n)
	for i := range fl.Records[:n] {
		r := &fl.Records[i]
		hashes = append(hashes, population.HashPII(r.FirstName, r.LastName, r.Address, r.ZIP))
	}
	return hashes
}

func baseConfig(t testing.TB) Config {
	return Config{
		Seed:           42,
		Workers:        3,
		Scenarios:      6,
		AdsPerCampaign: 2,
		AudienceSize:   150,
		Hashes:         hashPool(t, 2000),
	}
}

// countChecks asserts the request accounting a deterministic healthy run
// must produce.
func countChecks(t *testing.T, rep *Report, scenarios, adsPer int) {
	t.Helper()
	if rep.ScenariosCompleted != scenarios || rep.ScenariosFailed != 0 {
		t.Fatalf("scenarios: %d completed, %d failed, want %d/0",
			rep.ScenariosCompleted, rep.ScenariosFailed, scenarios)
	}
	want := map[string]int64{
		OpCreateAudience: int64(scenarios),
		OpCreateCampaign: int64(scenarios),
		OpCreateAd:       int64(scenarios * adsPer),
		OpDeliver:        int64(scenarios),
		OpInsights:       int64(scenarios * adsPer * insightsPolls),
	}
	var total int64
	for op, n := range want {
		got := rep.Operations[op]
		if got.Requests != n {
			t.Errorf("%s: %d requests, want %d", op, got.Requests, n)
		}
		if got.Errors != 0 {
			t.Errorf("%s: %d errors", op, got.Errors)
		}
		if got.Latency.Count != n || got.Latency.MaxMs <= 0 {
			t.Errorf("%s latency snapshot: %+v", op, got.Latency)
		}
		total += n
	}
	if rep.Requests != total || rep.Errors != 0 {
		t.Errorf("totals: %d requests %d errors, want %d/0", rep.Requests, rep.Errors, total)
	}
	if rep.ThroughputRPS <= 0 || rep.WallSeconds <= 0 {
		t.Errorf("throughput %v over %vs", rep.ThroughputRPS, rep.WallSeconds)
	}
}

func TestClosedLoopRun(t *testing.T) {
	client, srv, _ := newTarget(t)
	cfg := baseConfig(t)
	r, err := New(cfg, client)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	countChecks(t, rep, cfg.Scenarios, cfg.AdsPerCampaign)
	if rep.Mode != "closed" || rep.Workers != cfg.Workers {
		t.Errorf("mode/workers: %s/%d", rep.Mode, rep.Workers)
	}

	// The server-side registry must agree with the client-side accounting:
	// every create_ad the generator issued is a POST /v1/ads the server
	// counted.
	snap := srv.Metrics().Snapshot()
	pairs := map[string]string{
		OpCreateAudience: "POST /v1/customaudiences",
		OpCreateCampaign: "POST /v1/campaigns",
		OpCreateAd:       "POST /v1/ads",
		OpDeliver:        "POST /v1/deliver",
		OpInsights:       "GET /v1/insights",
	}
	for op, route := range pairs {
		if got := snap.Counters[obs.MetricRequests+"|"+route]; got != rep.Operations[op].Requests {
			t.Errorf("server counted %d for %s, client sent %d", got, route, rep.Operations[op].Requests)
		}
		if got := snap.Counters[obs.MetricRequests+".2xx|"+route]; got != rep.Operations[op].Requests {
			t.Errorf("server 2xx %d for %s, want %d", got, route, rep.Operations[op].Requests)
		}
	}
}

func TestOpenLoopRun(t *testing.T) {
	client, _, _ := newTarget(t)
	cfg := baseConfig(t)
	cfg.Mode = ModeOpen
	cfg.ArrivalRPS = 300 // keep the seeded arrival schedule fast for tests
	cfg.Scenarios = 5
	r, err := New(cfg, client)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	countChecks(t, rep, cfg.Scenarios, cfg.AdsPerCampaign)
	if rep.Mode != "open" || rep.ArrivalRPS != 300 || rep.Workers != 0 {
		t.Errorf("open-loop report header: %+v", rep)
	}
}

// TestDeterministicWorkload runs the same seed against two identically
// seeded fresh worlds: the request sequence (counts, errors, scenario
// outcomes) must be identical; only latencies may differ.
func TestDeterministicWorkload(t *testing.T) {
	runs := make([]*Report, 2)
	for i := range runs {
		client, _, _ := newTarget(t)
		r, err := New(baseConfig(t), client)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = rep
	}
	a, b := runs[0], runs[1]
	if a.Requests != b.Requests || a.Errors != b.Errors ||
		a.ScenariosCompleted != b.ScenariosCompleted || a.ScenariosFailed != b.ScenariosFailed {
		t.Errorf("runs diverged: %+v vs %+v", a, b)
	}
	for op := range a.Operations {
		if a.Operations[op].Requests != b.Operations[op].Requests {
			t.Errorf("%s: %d vs %d requests", op, a.Operations[op].Requests, b.Operations[op].Requests)
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	client, _, _ := newTarget(t)
	if _, err := New(Config{Hashes: []string{"h"}}, nil); err == nil {
		t.Error("nil client: want error")
	}
	if _, err := New(Config{}, client); err == nil {
		t.Error("empty hash pool: want error")
	}
	if _, err := New(Config{Mode: "bursty", Hashes: []string{"h"}}, client); err == nil {
		t.Error("unknown mode: want error")
	}
}

func TestCancelledContextStopsWork(t *testing.T) {
	client, _, _ := newTarget(t)
	r, err := New(baseConfig(t), client)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := r.Run(ctx)
	if err == nil {
		t.Error("cancelled run should surface ctx.Err()")
	}
	if rep.Requests != 0 || rep.ScenariosCompleted != 0 {
		t.Errorf("cancelled run still did work: %+v", rep)
	}
}

func TestReportRoundTrip(t *testing.T) {
	client, srv, _ := newTarget(t)
	cfg := baseConfig(t)
	cfg.Scenarios = 2
	r, err := New(cfg, client)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics().Snapshot()
	rep.ServerMetrics = &snap
	path := t.TempDir() + "/report.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.Requests != rep.Requests || back.ServerMetrics == nil {
		t.Errorf("round trip: %+v", back)
	}
	if back.ServerMetrics.Counters[obs.MetricRequests] == 0 {
		t.Error("server metrics lost in round trip")
	}
}
