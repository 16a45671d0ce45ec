package loadgen

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
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

// countChecks asserts the accounting a deterministic healthy run must
// produce: every scenario completed, and the server counted the closed-form
// number of requests on every route, all answered 2xx.
func countChecks(t *testing.T, srv *marketing.Server, completed, failed, scenarios, adsPer int) {
	t.Helper()
	if completed != scenarios || failed != 0 {
		t.Fatalf("scenarios: %d completed, %d failed, want %d/0", completed, failed, scenarios)
	}
	n, ads := int64(scenarios), int64(adsPer)
	want := map[string]int64{
		"POST /v1/customaudiences": n,
		"POST /v1/campaigns":       n,
		"POST /v1/ads":             n * ads,
		"POST /v1/deliver":         n,
		"GET /v1/insights":         n * ads * insightsPolls,
	}
	snap := srv.Metrics().Snapshot()
	var total int64
	for route, n := range want {
		if got := snap.Counters[obs.MetricRequests+"|"+route]; got != n {
			t.Errorf("server counted %d for %s, want %d", got, route, n)
		}
		if got := snap.Counters[obs.MetricRequests+".2xx|"+route]; got != n {
			t.Errorf("server 2xx %d for %s, want %d", got, route, n)
		}
		total += n
	}
	if got := snap.Counters[obs.MetricRequests]; got != total {
		t.Errorf("server counted %d requests in all, want %d", got, total)
	}
}

func TestClosedLoopRun(t *testing.T) {
	client, srv, _ := newTarget(t)
	cfg := baseConfig(t)
	r, err := New(cfg, client)
	if err != nil {
		t.Fatal(err)
	}
	completed, failed, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	countChecks(t, srv, completed, failed, cfg.Scenarios, cfg.AdsPerCampaign)
}

// TestDeterministicWorkload runs the same seed against two identically
// seeded fresh worlds: both servers must count the closed-form request
// sequence, and their object censuses (counts, targeted users, campaign
// names, review draws) must agree afterwards.
func TestDeterministicWorkload(t *testing.T) {
	var invs [2]*platform.Inventory
	for i := range invs {
		client, srv, _ := newTarget(t)
		cfg := baseConfig(t)
		r, err := New(cfg, client)
		if err != nil {
			t.Fatal(err)
		}
		completed, failed, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		countChecks(t, srv, completed, failed, cfg.Scenarios, cfg.AdsPerCampaign)
		inv, err := client.Inventory(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		invs[i] = inv
	}
	if !reflect.DeepEqual(invs[0], invs[1]) {
		t.Errorf("runs diverged: %+v vs %+v", invs[0], invs[1])
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
	// A count below one is refused, never replaced by a default.
	for _, field := range []string{"Workers", "Scenarios", "AdsPerCampaign", "AudienceSize"} {
		for _, v := range []int{0, -1} {
			cfg := baseConfig(t)
			switch field {
			case "Workers":
				cfg.Workers = v
			case "Scenarios":
				cfg.Scenarios = v
			case "AdsPerCampaign":
				cfg.AdsPerCampaign = v
			case "AudienceSize":
				cfg.AudienceSize = v
			}
			want := fmt.Sprintf("%s must be positive, got %d", field, v)
			if _, err := New(cfg, client); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %d: got %v, want an error containing %q", field, v, err, want)
			}
		}
	}
	if _, err := New(baseConfig(t), client); err != nil {
		t.Errorf("base configuration: %v", err)
	}
}

func TestCancelledContextStopsWork(t *testing.T) {
	client, srv, _ := newTarget(t)
	r, err := New(baseConfig(t), client)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	completed, failed, err := r.Run(ctx)
	if err == nil {
		t.Error("cancelled run should surface ctx.Err()")
	}
	if completed != 0 || failed != 0 {
		t.Errorf("cancelled run still ran scenarios: %d completed, %d failed", completed, failed)
	}
	if got := srv.Metrics().Snapshot().Counters[obs.MetricRequests]; got != 0 {
		t.Errorf("cancelled run sent %d requests, want 0", got)
	}
}
