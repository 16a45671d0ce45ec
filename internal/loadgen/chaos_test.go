package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/adaudit/impliedidentity/internal/faults"
	"github.com/adaudit/impliedidentity/internal/marketing"
	"github.com/adaudit/impliedidentity/internal/obs"
	"github.com/adaudit/impliedidentity/internal/platform"
)

// chaosTarget self-hosts a marketing server and returns a client whose
// requests draw faults on their way to it, plus the platform handle so the
// soak can audit its inventory. The injector counts into the server's
// registry, so one snapshot shows the faults beside the replays they caused.
func chaosTarget(t testing.TB, faultCfg faults.Config) (*marketing.Client, *platform.Platform, *marketing.Server) {
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
	inj, err := faults.New(faultCfg, srv.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := marketing.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	client.SetTransport(faults.NewTransport(nil, inj, nil, nil))
	return client, p, srv
}

// TestChaosSoakExactlyOnce is the acceptance soak: a full load run whose
// requests draw faults 20% of the time (every kind: latency, 429, 5xx,
// connections dropped after the server acted, slow answers) under a fixed
// schedule seed. The
// resilient client must absorb every fault — all scenarios complete with
// zero operation errors — and the platform's inventory must show every
// create executed exactly once: no lost campaigns from dropped responses, no
// duplicates from retried POSTs. Run it with -race; the whole
// client/injector/server stack is concurrent.
func TestChaosSoakExactlyOnce(t *testing.T) {
	const (
		scenarios = 12
		adsPer    = 2
	)
	client, p, srv := chaosTarget(t, faults.Config{Seed: 42, Rate: 0.2, Kinds: faults.AllKinds()})
	// Deep attempt budget with short waits: at a 20% fault rate a handful of
	// back-to-back faults per call is routine, and the soak must outlast the
	// worst streak without stretching wall time.
	client.SetRetryPolicy(marketing.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	})

	runner, err := New(Config{
		Seed:           42,
		Workers:        6,
		Scenarios:      scenarios,
		AdsPerCampaign: adsPer,
		AudienceSize:   50,
		Hashes:         hashPool(t, 2000),
	}, client)
	if err != nil {
		t.Fatal(err)
	}
	completed, failed, err := runner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A scenario fails at the first request the retry layer gives up on, so
	// every scenario completing means no fault surfaced as an error.
	if completed != scenarios || failed != 0 {
		t.Fatalf("scenarios: %d completed, %d failed, want %d/0", completed, failed, scenarios)
	}

	// Exactly-once: the platform holds precisely the objects the workload
	// created — a dropped response that was retried must not double-create,
	// a lost create must not leave a hole.
	inv := p.Inventory()
	if inv.Audiences != scenarios {
		t.Errorf("audiences %d, want %d", inv.Audiences, scenarios)
	}
	if inv.Campaigns != scenarios {
		t.Errorf("campaigns %d, want %d", inv.Campaigns, scenarios)
	}
	if inv.Ads != scenarios*adsPer {
		t.Errorf("ads %d, want %d", inv.Ads, scenarios*adsPer)
	}
	seen := map[string]bool{}
	for _, name := range inv.CampaignNames {
		if seen[name] {
			t.Errorf("campaign %q created twice", name)
		}
		seen[name] = true
	}

	// The soak only proves something if the injector actually fired and the
	// client actually retried.
	snap := srv.Metrics().Snapshot()
	retries := client.Metrics().Snapshot().Counters[marketing.MetricClientRetries]
	if snap.Counters[faults.MetricInjected] == 0 {
		t.Error("no faults injected; the soak exercised nothing")
	}
	if retries == 0 {
		t.Error("no client retries recorded under a 20% fault rate")
	}
	t.Logf("soak: %d requests served, %d faults injected, %d retries, %d idempotent replays",
		snap.Counters[obs.MetricRequests],
		snap.Counters[faults.MetricInjected],
		retries,
		snap.Counters[marketing.MetricIdempotentReplays])
}

// TestChaosScheduleReproducible pins the acceptance requirement that a fault
// seed fully determines the fault schedule: two injectors built from the
// same config must agree on every slot's decision, so a failing soak can be
// replayed exactly.
func TestChaosScheduleReproducible(t *testing.T) {
	cfg := faults.Config{Seed: 42, Rate: 0.2, Kinds: faults.AllKinds()}
	a, err := faults.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faults.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		da, db := a.ScheduleAt(i), b.ScheduleAt(i)
		if da != db {
			t.Fatalf("slot %d: schedules diverge (%+v vs %+v)", i, da, db)
		}
	}
}
